"""Assembly of synthetic load series at any duration and resolution.

The pipeline per load:

1. pick the deepest aggregation level whose sampling period does not
   exceed the requested effective period (never upsample);
2. plan the calendar weeks to cover the request: season labels follow the
   season-of-week map from January 1st for auto-yearly requests, or sit
   inside the requested season's 13-week run (seed-chosen start);
3. scale year -> week -> hour -> 30 s: each child profile is multiplied so
   its mean equals the parent sample it refines.  Every level's profiles
   arrive from its generator as one (count, length) array and are scaled,
   re-trended and concatenated as whole matrices; no ProfileSet (the
   dataset type) is built here;
4. smooth only the week-level junctions with the learned 5-tap filter
   (junctions at the two bottom levels are left untouched);
5. for sub-hour output, add the degree-4 trend interpolated through the
   five surrounding hourly values (window shifted, not truncated, at the
   series edges);
6. aggregate down to the exact requested resolution with the requested
   metric, scale by base_mw, and truncate to the requested duration.

Output values are strictly positive whenever base_mw > 0 because every
generated profile respects its bounded output activation.

A year is exactly 52 weeks; requests 1-2 days past a whole year extend the
final week's scaling value instead of opening a new year, and anything
longer concatenates independent years with the seam filter applied across
the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    LEVEL_SPECS,
    MAX_YEARS,
    PMU_RATE_HZ,
    SEASON_RUN_START,
    SEASON_RUN_WEEKS,
    SECONDS_PER_WEEK,
    SECONDS_PER_YEAR,
    Level,
    LoadClass,
    Metric,
    Resolution,
    Season,
    downsample,
    season_of_week,
    sub_seed,
)
from .errors import DegenerateProfile, InsufficientData, RequestError
from .neural.gan import GanModel, gan_generate
from .svdgen import SvdModel, svd_generate

_EXTENSION_LIMIT_S = 2 * 86_400.0  # days 365/366 extend the final week


@dataclass(frozen=True)
class SeamFilter:
    """The learned 5-tap junction filter; the centre weight is pinned."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if beta.shape != (5,):
            raise ValueError("seam filter needs exactly 5 weights")
        if not np.all(np.isfinite(beta)):
            raise ValueError("seam filter weights must be finite")
        if beta[2] != 0.5:
            raise ValueError("the centre weight is fixed at 0.5")


def learn_seam_filter(weeks) -> SeamFilter:
    """Least-squares fit of the four free weights over all interior samples.

    ``weeks`` is a (count, length) array of week profiles.  Each interior
    sample x_k of each row contributes the design row
    [x_{k-2}, x_{k-1}, x_{k+1}, x_{k+2}] with target 0.5 * x_k, in row-major
    order.
    """
    weeks = np.asarray(weeks, dtype=np.float64)
    inner = max(weeks.shape[1] - 4, 0)  # interior samples per row
    n = len(weeks) * inner
    if n < 100:
        raise InsufficientData(
            f"seam filter needs >= 100 interior samples with +-2 neighbours, got {n}"
        )
    X = np.stack([weeks[:, s : s + inner] for s in (0, 1, 3, 4)], axis=-1).reshape(n, 4)
    y = 0.5 * weeks[:, 2 : 2 + inner].ravel()
    b4, *_ = np.linalg.lstsq(X, y, rcond=None)
    return SeamFilter(beta=np.array([b4[0], b4[1], 0.5, b4[2], b4[3]]))


def apply_seam_filter(series, seam_indices, filt: SeamFilter) -> np.ndarray:
    """Replace the last two and first two samples around each junction.

    A seam index j is the final sample of the leading profile; samples
    j-1..j+2 are recomputed from the ORIGINAL neighbour values, so the
    result does not depend on the order seams are processed.
    """
    series = np.asarray(series, dtype=np.float64)
    out = series.copy()
    for j in sorted(seam_indices):
        if j - 3 < 0 or j + 4 > series.size - 1:
            raise ValueError(f"seam at {j} lacks two in-range neighbours on both sides")
        for i in range(j - 1, j + 3):
            out[i] = float(np.dot(filt.beta, series[i - 2 : i + 3]))
    return out


def scale_to_parent(children, parent_values) -> np.ndarray:
    """Rescale each row of a (n, length) array so its mean equals the
    matching parent-level sample in ``parent_values`` (n,)."""
    children = np.asarray(children, dtype=np.float64)
    parent_values = np.asarray(parent_values, dtype=np.float64)
    if np.any(parent_values <= 0):
        raise DegenerateProfile(f"parent values {parent_values!r} must be positive")
    means = children.mean(axis=1)
    if np.any(means <= 0):
        raise DegenerateProfile(f"child means {means!r} must be positive")
    return children * (parent_values / means)[:, None]


def add_hour_trend(hour_samples, hourly_context, positions) -> np.ndarray:
    """Add to each hour the degree-4 interpolant through its five hourly values.

    ``hour_samples`` is (n, 120), ``hourly_context`` (n, 5) and
    ``positions`` (n, 5) or one row for all hours: the context hours'
    offsets (in hours) from the hour of interest, normally (-2..2); a
    shifted window near a series edge passes e.g. (0..4).  Five points,
    five coefficients: the interpolation is exact, so context lying on a
    quartic reproduces that quartic.
    """
    hours = np.asarray(hour_samples, dtype=np.float64)
    context = np.asarray(hourly_context, dtype=np.float64)
    n, length = hours.shape[0], LEVEL_SPECS[Level.L2].profile_length
    if hours.shape != (n, length) or context.shape != (n, 5):
        raise ValueError("expected (n, 120) sub-samples and (n, 5) context values")
    pos = np.broadcast_to(np.asarray(positions, dtype=np.float64), (n, 5))
    vander = pos[:, :, None] ** np.arange(5)
    coeffs = np.linalg.solve(vander, context[:, :, None])[:, :, 0]
    # sub-sample abscissae: centres of the 120 half-minute cells, in hours
    # relative to the centre of the hour of interest
    x = (np.arange(length) - (length - 1) / 2) / length
    trend = np.polynomial.polynomial.polyval(x, coeffs.T)
    return hours + trend


@dataclass(frozen=True)
class GenerationRequest:
    n_residential: int
    n_industrial: int
    resolution: Resolution
    duration_s: float
    season: Optional[Season] = None  # None means auto-yearly
    aggregation: Metric = Metric.MEAN
    base_mw: float = 1.0
    seed: int = 0

    @property
    def n_loads(self) -> int:
        return self.n_residential + self.n_industrial

    @property
    def rows(self) -> int:
        """Samples per load: the whole effective periods in the duration."""
        return int(math.floor(self.duration_s / self.resolution.effective_period_s + 1e-9))

    def load_class_of(self, index: int) -> LoadClass:
        # residential loads come first in the output ordering
        return (
            LoadClass.MAINLY_RESIDENTIAL
            if index < self.n_residential
            else LoadClass.MAINLY_INDUSTRIAL
        )

    def validate(self) -> None:
        if self.n_residential < 0 or self.n_industrial < 0 or self.n_loads < 1:
            raise RequestError("need at least one load (counts must be nonnegative)")
        eff = self.resolution.effective_period_s
        if self.duration_s < eff:
            raise RequestError(
                f"duration {self.duration_s}s is shorter than one sample at the "
                f"requested resolution ({eff}s)"
            )
        if not (math.isfinite(self.base_mw) and self.base_mw > 0):
            raise RequestError(f"base_mw {self.base_mw} must be finite and positive")
        if self.seed < 0:
            raise RequestError(f"seed {self.seed} must be zero or more")
        if self.season is not None and self.duration_s > SEASON_RUN_WEEKS * SECONDS_PER_WEEK:
            raise RequestError(
                "an explicit season is limited to 13 weeks of output; use the "
                "auto-yearly season for longer spans"
            )
        driving, factor = driving_level(self.resolution)  # RequestError on bad divisibility
        try:
            weeks, _ = _extension_weeks(self.rows * factor * LEVEL_SPECS[driving].sampling_period_s)
        except OverflowError:  # more rows than a float holds
            weeks = math.inf
        cap = MAX_YEARS * LEVEL_SPECS[Level.L4].profile_length
        if weeks > cap:
            raise RequestError(
                f"duration {self.duration_s}s needs more than the {cap} weeks ({MAX_YEARS} years) of one request"
            )
        if self.n_loads * self.rows * 8 > np.iinfo(np.intp).max:  # past what numpy can allocate
            raise MemoryError(f"{self.n_loads} x {self.rows} output values do not fit in memory")


def driving_level(resolution: Resolution) -> tuple[Level, int]:
    """Deepest level whose period fits the resolution, plus the aggregation
    factor from that level to the requested effective period."""
    eff_ticks = PMU_RATE_HZ * resolution.period_s / resolution.samples_per_period
    for level in (Level.L4, Level.L3, Level.L2, Level.L1):
        ticks = LEVEL_SPECS[level].ticks_per_sample
        if eff_ticks >= ticks * (1 - 1e-12):
            ratio = eff_ticks / ticks
            factor = int(round(ratio))
            if abs(ratio - factor) > 1e-9:
                raise RequestError(
                    f"effective period {eff_ticks / PMU_RATE_HZ}s is not an integer multiple "
                    f"of the {LEVEL_SPECS[level].sampling_period_s}s driving period; "
                    "pick a resolution whose period divides evenly"
                )
            return level, factor
    raise RequestError("effective period below the 30 samples/s ceiling")


@dataclass
class ModelSet:
    """Everything synthesize needs: the adversarial models of levels 1-3,
    two pattern models, and the junction filter."""

    l1: GanModel
    l2: GanModel
    l3: GanModel
    l4_residential: SvdModel
    l4_industrial: SvdModel
    seam: SeamFilter

    def l4_for(self, load_class: LoadClass) -> SvdModel:
        return (
            self.l4_residential
            if load_class is LoadClass.MAINLY_RESIDENTIAL
            else self.l4_industrial
        )


def _plan_weeks(
    request: GenerationRequest, weeks_total: int, load_index: int
) -> list[tuple[int, int, Season]]:
    """(year index, week-of-year, season) for each week to generate."""
    weeks = LEVEL_SPECS[Level.L4].profile_length
    if request.season is None:
        return [(w // weeks, w % weeks, season_of_week(w)) for w in range(weeks_total)]
    run_start = SEASON_RUN_START[request.season]
    slack = SEASON_RUN_WEEKS - weeks_total
    if slack < 0:
        raise RequestError("an explicit season covers at most 13 weeks")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(request.seed, load_index, 7))
    )
    start = run_start + int(rng.integers(0, slack + 1))
    return [(0, (start + w) % weeks, request.season) for w in range(weeks_total)]


def _extension_weeks(needed_time_s: float) -> tuple[int, bool]:
    """Weeks to generate, and whether the last one reuses the final week's
    scaling value (the 365/366-day extension)."""
    weeks_total = int(math.ceil(needed_time_s / SECONDS_PER_WEEK - 1e-9))
    n_full_years, rem_weeks = divmod(weeks_total, LEVEL_SPECS[Level.L4].profile_length)
    if n_full_years >= 1 and rem_weeks >= 1:
        rem_time = needed_time_s - n_full_years * SECONDS_PER_YEAR
        if 0 < rem_time <= _EXTENSION_LIMIT_S:
            return weeks_total, True
    return weeks_total, False


def _l4_week_values(
    request: GenerationRequest,
    models: ModelSet,
    load_class: LoadClass,
    load_index: int,
    plan: list[tuple[int, int, Season]],
    extend_last: bool,
) -> np.ndarray:
    """One scaling value per planned week, drawn from per-year profiles."""
    n_years = max(year for year, _, _ in plan) + 1
    model = models.l4_for(load_class)
    years = svd_generate(model, n_years, seed=sub_seed(request.seed, load_index, 4))
    values = np.array([years[year, week] for year, week, _ in plan])
    if extend_last:
        # the 53rd week (days 365/366) carries the final week's value
        prev_year, prev_week, _ = plan[-2]
        values[-1] = years[prev_year, prev_week]
    return values


def _driving_series(
    request: GenerationRequest,
    models: ModelSet,
    load_index: int,
    needed: int,
    driving: Level,
) -> np.ndarray:
    load_class = request.load_class_of(load_index)
    plen = LEVEL_SPECS[driving].profile_length
    # for sub-profile explicit-season requests, cover one full driving
    # profile so the output can be sliced from a seed-derived offset; at
    # the year level the seeded in-season week window already does this
    span = needed
    if request.season is not None and driving is not Level.L4:
        span = max(needed, plen)
    needed_time = span * LEVEL_SPECS[driving].sampling_period_s
    weeks_total, extend_last = _extension_weeks(needed_time)
    plan = _plan_weeks(request, weeks_total, load_index)

    if request.season is None or weeks_total > 1:
        l4_values = _l4_week_values(
            request, models, load_class, load_index, plan, extend_last
        )
    else:
        l4_values = np.ones(weeks_total)

    if driving is Level.L4:
        return l4_values[:weeks_total]

    labels = [(load_class, season) for _, _, season in plan]
    week_profiles = gan_generate(
        models.l3, weeks_total, seed=sub_seed(request.seed, load_index, 3), labels=labels
    )
    hourly = scale_to_parent(week_profiles, l4_values).ravel()
    week_len = LEVEL_SPECS[Level.L3].profile_length
    seams = [week_len * (k + 1) - 1 for k in range(weeks_total - 1)]
    if seams:
        hourly = apply_seam_filter(hourly, seams, models.seam)

    if driving is Level.L3:
        return hourly

    # sub-hour: how many hours of 30-second data the request consumes
    needed_halfmin = span
    if driving is Level.L1:
        needed_halfmin = int(math.ceil(span / LEVEL_SPECS[Level.L1].profile_length))
    n_hours = int(math.ceil(needed_halfmin / LEVEL_SPECS[Level.L2].profile_length))
    hour_profiles = gan_generate(
        models.l2, n_hours, seed=sub_seed(request.seed, load_index, 2)
    )
    h = np.arange(n_hours)
    window = np.clip(h - 2, 0, hourly.size - 5)[:, None] + np.arange(5)
    halfmin = add_hour_trend(
        hour_profiles * hourly[:n_hours, None], hourly[window], window - h[:, None]
    ).ravel()

    if driving is Level.L2:
        return halfmin

    # one 30 s profile of 30 Hz ticks per half-minute
    tick_profiles = gan_generate(
        models.l1, needed_halfmin, seed=sub_seed(request.seed, load_index, 1)
    )
    return (tick_profiles * halfmin[:needed_halfmin, None]).ravel()


def synthesize(request: GenerationRequest, models: ModelSet) -> tuple[np.ndarray, np.ndarray]:
    """Generate all requested loads.

    Returns (times_s, series) where times_s[i] = i * effective period from
    the nominal start (January 1st for auto-yearly requests) and series has
    one row per load, residential loads first.
    """
    request.validate()
    driving, factor = driving_level(request.resolution)
    rows = request.rows
    needed = rows * factor
    plen = LEVEL_SPECS[driving].profile_length

    out = np.empty((request.n_loads, rows))
    for load_index in range(request.n_loads):
        series = _driving_series(request, models, load_index, needed, driving)
        offset = 0
        if request.season is not None and needed < plen and series.size > needed:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(request.seed, load_index, 9))
            )
            offset = int(rng.integers(0, min(plen, series.size) - needed + 1))
        sliced = series[offset : offset + needed]
        out[load_index] = downsample(sliced, factor, request.aggregation) * request.base_mw
    times = np.arange(rows) * request.resolution.effective_period_s
    return times, out
