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

Generation runs in two stages.  The coarse path (`_coarse_series`: L4
values, L3 weeks with the seam filter, L2 hours with the hour trend) is
made whole for every load when `synthesize` is called; at 30 Hz driving it
ends in the half-minute series, about 8 MB per load-year.  The level-1 step
(`_level1_ticks`) then turns a range of half-minute indices into 30 Hz
ticks.  `synthesize` hands the series out as blocks of rows: at 30 Hz
driving one block per chunk of _CHUNK_PROFILES level-1 profiles of every
load, made only when the caller takes it, so a request of any duration
holds one chunk of ticks per load; at every other driving level one block.
The blocks hold the bits of the whole series made at once: a level-1 row's
noise is drawn by its index, chunks are whole generator pieces
(`gan.row_pieces`), and ticks past a chunk's last whole aggregation block
carry over to the next chunk.

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
from .neural.gan import GanModel, gan_generate, row_pieces
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
    # polyval(x, coeffs.T) by Horner's rule in one array: each step rounds
    # as polyval's c[k] + c0 * x does
    trend = coeffs[:, 4:] + x * 0
    for k in (3, 2, 1, 0):
        trend *= x
        trend += coeffs[:, k : k + 1]
    trend += hours
    return trend


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


def _coarse_series(
    request: GenerationRequest,
    models: ModelSet,
    load_index: int,
    span: int,
    driving: Level,
) -> np.ndarray:
    """The coarse path of one load: at driving levels 2-4 the series itself,
    ``span`` samples or more; at level 1 the half-minute values that its
    first ceil(span / 900) profiles are scaled to (one value per profile).
    """
    load_class = request.load_class_of(load_index)
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
    hour_profiles *= hourly[:n_hours, None]
    h = np.arange(n_hours)
    window = np.clip(h - 2, 0, hourly.size - 5)[:, None] + np.arange(5)
    return add_hour_trend(hour_profiles, hourly[window], window - h[:, None]).ravel()


def _level1_ticks(
    request: GenerationRequest, models: ModelSet, load_index: int, halfmin: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """The 30 Hz ticks of half-minutes lo..hi-1: one level-1 profile per
    half-minute, scaled to its value."""
    profiles = gan_generate(
        models.l1, hi - lo, seed=sub_seed(request.seed, load_index, 1), start=lo
    )
    return (profiles * halfmin[lo:hi, None]).ravel()


# level-1 profiles made at a time (32 min of ticks): a 30/s request holds
# one chunk of every load, not its whole series.  Chunks are cut by the rule
# of `gan.row_pieces`, so each is whole level-1 pieces of the request
_CHUNK_PROFILES = 64


@dataclass(frozen=True)
class RowTimes:
    """times_s[i] = i * period_s for the rows of a series, made one slice
    at a time (``times[a:b]``) or whole (``np.asarray(times)``)."""

    period_s: float
    rows: int

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.arange(*rows.indices(self.rows)) * self.period_s

    def __array__(self, dtype=None, copy=None):
        return self[:].astype(dtype or np.float64, copy=False)


class SeriesBlocks:
    """The values of a synthesized request, made one block of rows at a time.

    ``shape`` is (loads, rows) of the whole series.  Iterating yields
    (loads, k) float64 arrays, consecutive rows of every load whose k add up
    to the rows; each block is made when it is asked for, so the blocks can
    be iterated once.
    """

    def __init__(self, shape: tuple[int, int], blocks):
        self.shape = shape
        self._blocks = iter(blocks)

    def __iter__(self):
        return self._blocks

    def array(self) -> np.ndarray:
        """The whole (loads, rows) series, from the blocks not yet taken."""
        blocks = list(self)
        if sum(block.shape[1] for block in blocks) != self.shape[1]:
            raise ValueError("some of the blocks were taken already")
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def _level1_blocks(
    request: GenerationRequest,
    models: ModelSet,
    halfmins: list[np.ndarray],
    offsets: list[int],
    n_profiles: int,
    needed: int,
    factor: int,
):
    """The rows of every load, one chunk of level-1 profiles at a time.

    Load j keeps ticks offsets[j]..offsets[j]+needed-1; the ticks past a
    chunk's last whole aggregation block carry over to the next chunk.  An
    offset is non-zero only in a request of one profile, so every load
    gives a chunk the same number of rows.
    """
    tick_len = LEVEL_SPECS[Level.L1].profile_length
    carry = [np.empty(0)] * request.n_loads

    def fill(j: int, lo: int, hi: int, out: np.ndarray) -> None:
        first = lo * tick_len
        ticks = _level1_ticks(request, models, j, halfmins[j], lo, hi)
        kept = ticks[max(offsets[j] - first, 0) : max(offsets[j] + needed - first, 0)]
        ticks = np.concatenate([carry[j], kept])
        whole = out.size * factor
        if whole:
            out[:] = downsample(ticks[:whole], factor, request.aggregation) * request.base_mw
        carry[j] = ticks[whole:].copy()

    for lo, hi in row_pieces(0, n_profiles, _CHUNK_PROFILES):
        rows = min(hi * tick_len, needed) // factor - min(lo * tick_len, needed) // factor
        block = np.empty((request.n_loads, rows))
        for j in range(request.n_loads):
            fill(j, lo, hi, block[j])
        if block.size:
            yield block


def synthesize(request: GenerationRequest, models: ModelSet) -> tuple[RowTimes, SeriesBlocks]:
    """Generate all requested loads.

    Returns (times_s, series): times_s[i] = i * effective period from the
    nominal start (January 1st for auto-yearly requests), and series the
    values, one row per load, residential loads first, as blocks of rows
    (``SeriesBlocks.array`` joins them).  The coarse path of every load is
    made here.  At 30 Hz driving the level-1 ticks are made, aggregated and
    handed out one chunk of profiles at a time, as the blocks are taken;
    at every other driving level the series is one block.
    """
    request.validate()
    driving, factor = driving_level(request.resolution)
    rows = request.rows
    needed = rows * factor
    plen = LEVEL_SPECS[driving].profile_length
    # for sub-profile explicit-season requests, cover one full driving
    # profile so the output can be sliced from a seed-derived offset; at
    # the year level the seeded in-season week window already does this
    span = needed
    if request.season is not None and driving is not Level.L4:
        span = max(needed, plen)
    n_profiles = int(math.ceil(span / plen))

    out = None if driving is Level.L1 else np.empty((request.n_loads, rows))
    halfmins, offsets = [], []
    for load_index in range(request.n_loads):
        series = _coarse_series(request, models, load_index, span, driving)
        size = series.size if out is not None else n_profiles * plen
        offset = 0
        if request.season is not None and needed < plen and size > needed:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(request.seed, load_index, 9))
            )
            offset = int(rng.integers(0, min(plen, size) - needed + 1))
        if out is None:
            halfmins.append(series)
            offsets.append(offset)
        else:
            sliced = series[offset : offset + needed]
            out[load_index] = downsample(sliced, factor, request.aggregation) * request.base_mw

    if out is None:
        blocks = _level1_blocks(request, models, halfmins, offsets, n_profiles, needed, factor)
    else:
        blocks = [out]
    times = RowTimes(request.resolution.effective_period_s, rows)
    return times, SeriesBlocks((request.n_loads, rows), blocks)
