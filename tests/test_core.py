"""Core primitives: normalization, downsampling, resolution grammar."""

import numpy as np
import pytest

from loadsynth.core import (
    LEVEL_SPECS,
    SEASON_RUN_START,
    Level,
    LoadClass,
    Metric,
    ProfileRowError,
    ProfileSet,
    Season,
    downsample,
    noise_rows,
    parse_resolution,
    season_of_week,
    truncate_to_multiple,
)
from loadsynth.errors import RequestError
from loadsynth.ingest import LevelDatasets, add_mean_one_rows


def normalize(window, level=Level.L4):
    """The mean-one profile that dataset extraction makes of one raw
    ``window`` at ``level``, as (samples, source mean); None when the window
    is left out."""
    out = LevelDatasets()
    add_mean_one_rows(out, level, np.asarray(window, float)[None, :], LoadClass.MAINLY_RESIDENTIAL)
    profiles = out.of(level)
    return (profiles.samples[0], profiles.source_mean[0]) if len(profiles) else None


class TestNormalizeMean:
    """Mean-one normalization of raw windows, where extraction builds each
    level's ProfileSet."""

    def test_constant_profile(self):
        samples, mean = normalize(np.full(52, 5.0))
        assert mean == 5.0
        np.testing.assert_allclose(samples, np.ones(52), rtol=1e-12)

    def test_two_point(self):
        samples, mean = normalize(np.tile([2.0, 4.0], 26))
        assert mean == 3.0
        np.testing.assert_allclose(samples, np.tile([2 / 3, 4 / 3], 26), rtol=1e-12)

    def test_zero_profile_degenerate(self):
        out = LevelDatasets()
        add_mean_one_rows(out, Level.L4, np.zeros((1, 52)), LoadClass.MAINLY_RESIDENTIAL)
        assert len(out.l4) == 0
        assert not out.skipped  # left out, but not counted as a bad reading

    def test_threshold_is_relative_to_maximum(self):
        # small absolute values are fine as long as the mean is a healthy
        # fraction of the peak; the threshold scales with magnitude
        samples, mean = normalize(np.tile([1e-7, 3e-7], 26))
        assert abs(samples.mean() - 1.0) < 1e-9
        assert mean == pytest.approx(2e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        level = [Level.L1, Level.L3, Level.L4][seed % 3]
        values = rng.uniform(0.5, 200.0, size=LEVEL_SPECS[level].profile_length)
        samples, mean = normalize(values, level)
        assert abs(samples.mean() - 1.0) < 1e-9
        np.testing.assert_allclose(samples * mean, values, rtol=1e-12)


class TestDownsample:
    def test_mean(self):
        np.testing.assert_array_equal(
            downsample([1, 2, 3, 4], 2, Metric.MEAN), [1.5, 3.5]
        )

    def test_min(self):
        np.testing.assert_array_equal(downsample([1, 2, 3, 4], 2, Metric.MIN), [1, 3])

    def test_max(self):
        np.testing.assert_array_equal(downsample([1, 2, 3, 4], 2, Metric.MAX), [2, 4])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            downsample([], 2, Metric.MEAN)

    def test_zero_factor(self):
        with pytest.raises(ValueError, match="factor must be positive"):
            downsample([1, 2], 0, Metric.MEAN)

    def test_nonmultiple_length_rejected(self):
        with pytest.raises(ValueError, match="not a multiple"):
            downsample([1, 2, 3], 2, Metric.MEAN)

    @pytest.mark.parametrize("seed", range(8))
    def test_mean_preserves_global_mean(self, seed):
        rng = np.random.default_rng(100 + seed)
        factor = int(rng.integers(1, 12))
        n = factor * int(rng.integers(1, 50))
        x = rng.normal(10.0, 3.0, n)
        down = downsample(x, factor, Metric.MEAN)
        assert abs(down.mean() - x.mean()) < 1e-12 * max(1.0, abs(x.mean()))

    @pytest.mark.parametrize("seed", range(8))
    def test_mean_composes(self, seed):
        rng = np.random.default_rng(200 + seed)
        f1, f2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        x = rng.normal(size=f1 * f2 * int(rng.integers(1, 20)))
        once = downsample(downsample(x, f1, Metric.MEAN), f2, Metric.MEAN)
        direct = downsample(x, f1 * f2, Metric.MEAN)
        np.testing.assert_allclose(once, direct, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_min_le_mean_le_max(self, seed):
        rng = np.random.default_rng(300 + seed)
        factor = int(rng.integers(1, 10))
        x = rng.normal(size=factor * int(rng.integers(1, 30)))
        lo = downsample(x, factor, Metric.MIN)
        mid = downsample(x, factor, Metric.MEAN)
        hi = downsample(x, factor, Metric.MAX)
        assert np.all(lo <= mid + 1e-15) and np.all(mid <= hi + 1e-15)

    def test_truncate_to_multiple(self):
        np.testing.assert_array_equal(truncate_to_multiple(np.arange(10.0), 4), np.arange(8.0))


class TestParseResolution:
    def test_ten_minute_standard(self):
        r = parse_resolution("1/10min")
        assert r.samples_per_period == 1
        assert r.period_s == 600.0
        assert r.effective_period_s == 600.0

    def test_pmu_ceiling(self):
        r = parse_resolution("30/s")
        assert r.samples_per_period == 30
        assert r.period_s == 1.0
        assert abs(r.effective_period_s - 1 / 30) < 1e-15

    def test_too_fine(self):
        with pytest.raises(RequestError, match="finer than"):
            parse_resolution("60/s")

    @pytest.mark.parametrize(
        "text,count,period",
        [
            ("1/h", 1, 3600.0),
            ("1/wk", 1, 604800.0),
            ("1/d", 1, 86400.0),
            ("4/h", 4, 3600.0),
            ("1/2wk", 1, 1209600.0),
            ("12/5min", 12, 300.0),
        ],
    )
    def test_grammar_accepts(self, text, count, period):
        r = parse_resolution(text)
        assert (r.samples_per_period, r.period_s) == (count, period)

    @pytest.mark.parametrize(
        "text",
        [
            "", "1", "/s", "1/", "1/m", "1/S", "1/MIN", "1 /s", "1/ s", "1/s ",
            " 1/s", "1//s", "1/1.5h", "-1/s", "1/-2min", "a/s", "1/sy", "1/yr",
            "0/s", "1/0min", "1/10 min",
        ],
    )
    def test_grammar_rejects(self, text):
        with pytest.raises(RequestError):
            parse_resolution(text)

    def test_every_string_parses_or_raises_one_error(self):
        # Totality over arbitrary input: RequestError or success.
        rng = np.random.default_rng(7)
        alphabet = list("0123456789/sminhdwk .xX-")
        for _ in range(500):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 10)))
            try:
                parse_resolution(text)
            except RequestError:
                pass

    def test_exact_boundary_is_allowed(self):
        # 2/s has period 0.5 s per sample, well above the ceiling
        parse_resolution("2/s")
        # 31/s is just past it
        with pytest.raises(RequestError, match="finer than"):
            parse_resolution("31/s")


class TestSeasonOfWeek:
    def test_boundaries(self):
        assert season_of_week(0) is Season.WINTER  # week 1
        assert season_of_week(8) is Season.WINTER  # week 9
        assert season_of_week(9) is Season.SPRING  # week 10
        assert season_of_week(21) is Season.SPRING  # week 22
        assert season_of_week(22) is Season.SUMMER  # week 23
        assert season_of_week(34) is Season.SUMMER  # week 35
        assert season_of_week(35) is Season.FALL  # week 36
        assert season_of_week(47) is Season.FALL  # week 48
        assert season_of_week(48) is Season.WINTER  # week 49
        assert season_of_week(51) is Season.WINTER  # week 52

    def test_every_week_assigned(self):
        counts = {s: 0 for s in Season}
        for w in range(52):
            counts[season_of_week(w)] += 1
        assert counts == {Season.WINTER: 13, Season.SPRING: 13, Season.SUMMER: 13, Season.FALL: 13}

    def test_wraps_for_multi_year(self):
        assert season_of_week(52) is season_of_week(0)


@pytest.mark.parametrize(
    "level,length,period_s,span_s",
    [
        (Level.L1, 900, 1 / 30, 30.0),
        (Level.L2, 120, 30.0, 3600.0),
        (Level.L3, 168, 3600.0, 604800.0),
        (Level.L4, 52, 604800.0, 31449600.0),
    ],
)
def test_level_geometry(level, length, period_s, span_s):
    spec = LEVEL_SPECS[level]
    assert (spec.profile_length, spec.sampling_period_s, spec.span_s) == (length, period_s, span_s)
    levels = list(Level)
    if level is not Level.L4:  # a level's sample is one profile of the level below
        assert spec.span_s == LEVEL_SPECS[levels[levels.index(level) + 1]].sampling_period_s
    # the season-run table and the season of every week of the year agree
    runs = {(start + k) % 52: season for season, start in SEASON_RUN_START.items() for k in range(13)}
    assert {w: season_of_week(w) for w in range(52)} == runs


def year_rows(n=4):
    return np.random.default_rng(0).uniform(0.5, 1.5, (n, 52))


def mean_one_rows(n=4):
    rows = year_rows(n)
    return rows / rows.mean(axis=1, keepdims=True)


class TestProfileSetInvariants:
    def test_rejects_nan(self):
        rows = mean_one_rows()
        rows[1, 5] = np.nan
        with pytest.raises(ProfileRowError, match="^row 1: samples must be finite$") as info:
            ProfileSet(Level.L4, rows)
        assert info.value.row == 1

    def test_rejects_negative_mean_one(self):
        rows = mean_one_rows()
        rows[2, :2] = [-0.5, rows[2, 0] + rows[2, 1] + 0.5]  # the mean stays 1
        with pytest.raises(ProfileRowError, match="^row 2: mean-one samples must be nonnegative$"):
            ProfileSet(Level.L4, rows)

    def test_rejects_bad_mean_one(self):
        rows = mean_one_rows()
        rows[3] = 1.5
        with pytest.raises(ProfileRowError, match=r"^row 3: mean-one profile has mean 1\.5$"):
            ProfileSet(Level.L4, rows)

    def test_rejects_off_zero_level2(self):
        rows = np.zeros((3, 120))
        rows[1, 0] = 1.2e-4  # mean 1e-6 passes
        rows[2, 0] = 1.3e-4
        with pytest.raises(ProfileRowError, match=r"^row 2: detrended profile has mean 1\.08"):
            ProfileSet(Level.L2, rows)

    def test_rejects_wrong_length(self):
        with pytest.raises(ProfileRowError, match=r"^row 0: length 51 does not fit level l4 \(52\)$"):
            ProfileSet(Level.L4, mean_one_rows()[:, :51])

    def test_names_the_first_bad_row(self):
        rows = mean_one_rows()
        rows[3, 0] = np.inf
        rows[1] *= 2.0
        with pytest.raises(ProfileRowError, match="^row 1: mean-one profile has mean 2"):
            ProfileSet(Level.L4, rows)

    def test_samples_are_read_only(self):
        rows = mean_one_rows()
        profiles = ProfileSet(Level.L4, rows)
        with pytest.raises(ValueError):
            profiles.samples[0, 0] = 2.0
        with pytest.raises(ValueError):
            profiles.source_mean[0] = 2.0
        rows[0, 0] = 2.0  # the caller's array stays its own
        assert rows.flags.writeable

    def test_labels_and_means_default_to_unknown(self):
        profiles = ProfileSet(Level.L2, np.zeros((3, 120)))
        assert len(profiles) == 3
        assert profiles.load_class == profiles.season == (None, None, None)
        assert np.isnan(profiles.source_mean).all() and profiles.source_mean.shape == (3,)
        assert np.isnan(profiles.trend_coeffs).all() and profiles.trend_coeffs.shape == (3, 5)
        assert ProfileSet(Level.L4, mean_one_rows()).trend_coeffs is None
        with pytest.raises(ValueError, match="only level 2"):
            ProfileSet(Level.L4, mean_one_rows(), trend_coeffs=np.zeros((4, 5)))
        with pytest.raises(ValueError, match="one load class"):
            ProfileSet(Level.L4, mean_one_rows(), load_class=[LoadClass.MAINLY_INDUSTRIAL])
        assert ProfileSet(Level.L1, ()).samples.shape == (0, 900)

    def test_concatenate_keeps_row_order(self):
        rows = mean_one_rows(5)
        a = ProfileSet(Level.L4, rows[:2], [LoadClass.MAINLY_RESIDENTIAL] * 2, None, [1.0, 2.0])
        b = ProfileSet(Level.L4, rows[2:], [LoadClass.MAINLY_INDUSTRIAL] * 3, [Season.FALL] * 3)
        both = ProfileSet.concatenate([a, b])
        assert both.samples.tobytes() == rows.tobytes()
        assert both.load_class == (LoadClass.MAINLY_RESIDENTIAL,) * 2 + (LoadClass.MAINLY_INDUSTRIAL,) * 3
        assert both.season == (None, None, Season.FALL, Season.FALL, Season.FALL)
        np.testing.assert_array_equal(both.source_mean, [1.0, 2.0, np.nan, np.nan, np.nan])


def test_noise_rows_of_a_range_are_those_rows_of_the_whole():
    whole = noise_rows(7, 9, 5)
    assert noise_rows(7, 4, 5, start=3).tobytes() == whole[3:7].tobytes()
    assert noise_rows(7, 0, 5, start=9).shape == (0, 5)
