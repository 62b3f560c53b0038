"""Seam filter, cross-level scaling, trend injection, and full assembly."""

import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loadsynth import compose
from loadsynth.compose import (
    GenerationRequest,
    SeamFilter,
    _extension_weeks,
    _plan_weeks,
    add_hour_trend,
    apply_seam_filter,
    driving_level,
    learn_seam_filter,
    scale_to_parent,
    synthesize,
)
from loadsynth.core import (
    Level,
    LoadClass,
    LoadProfile,
    Metric,
    Normalization,
    Season,
    parse_resolution,
    season_of_week,
)
from loadsynth.errors import (
    DegenerateProfile,
    InsufficientData,
    RequestError,
    SeamTooCloseToEdge,
)
from loadsynth.ingest import detrend_hour

DATA = Path(__file__).parent / "data"
WEEK_S = 604_800.0
YEAR_S = 52 * WEEK_S

UNIFORM_BETA = np.array([0.125, 0.125, 0.5, 0.125, 0.125])


def mean_one(samples, period=3600.0, **kw):
    samples = np.asarray(samples, float)
    return LoadProfile(
        samples=samples / samples.mean(),
        sampling_period_s=period,
        normalization=Normalization.MEAN_ONE,
        **kw,
    )


def load_fixture_profiles():
    rows = {}
    with open(DATA / "seam_fixture.csv") as fh:
        assert fh.readline().strip() == "profile,sample_index,value"
        for line in fh:
            p, i, v = line.split(",")
            rows.setdefault(int(p), []).append((int(i), float(v)))
    profiles = []
    for p in sorted(rows):
        values = np.array([v for _, v in sorted(rows[p])])
        profiles.append(mean_one(values))
    return profiles


class TestSeamFilterType:
    def test_centre_weight_pinned(self):
        with pytest.raises(ValueError):
            SeamFilter(beta=np.array([0.1, 0.2, 0.4, 0.2, 0.1]))

    def test_needs_five_weights(self):
        with pytest.raises(ValueError):
            SeamFilter(beta=np.array([0.5, 0.5, 0.5]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SeamFilter(beta=np.array([np.nan, 0.1, 0.5, 0.1, 0.1]))


class TestLearnSeamFilter:
    def test_linear_ramps_zero_residual_and_oracle_match(self):
        profiles = []
        for a, b in [(1.0, 0.001), (0.8, 0.002), (1.2, -0.001)]:
            ramp = a + b * np.arange(168)
            profiles.append(mean_one(ramp))
        filt = learn_seam_filter(profiles)
        # oracle: minimum-norm solution via explicit pseudoinverse
        rows, targets = [], []
        for prof in profiles:
            x = prof.samples
            idx = np.arange(2, 166)
            rows.append(np.column_stack([x[idx - 2], x[idx - 1], x[idx + 1], x[idx + 2]]))
            targets.append(0.5 * x[idx])
        X, y = np.vstack(rows), np.concatenate(targets)
        oracle = np.linalg.pinv(X) @ y
        free = np.concatenate([filt.beta[:2], filt.beta[3:]])
        np.testing.assert_allclose(free, oracle, atol=1e-10)
        assert np.max(np.abs(X @ free - y)) < 1e-10

    def test_committed_fixture_matches_pseudoinverse_oracle(self):
        profiles = load_fixture_profiles()
        filt = learn_seam_filter(profiles)
        rows, targets = [], []
        for prof in profiles:
            x = prof.samples
            idx = np.arange(2, 166)
            rows.append(np.column_stack([x[idx - 2], x[idx - 1], x[idx + 1], x[idx + 2]]))
            targets.append(0.5 * x[idx])
        oracle = np.linalg.pinv(np.vstack(rows)) @ np.concatenate(targets)
        free = np.concatenate([filt.beta[:2], filt.beta[3:]])
        np.testing.assert_allclose(free, oracle, atol=1e-10)
        assert filt.beta[2] == 0.5
        # normal equations hold to high relative accuracy
        X, y = np.vstack(rows), np.concatenate(targets)
        resid = X.T @ (X @ free) - X.T @ y
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(X.T @ y)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            learn_seam_filter([mean_one(np.ones(50) + 0.01 * np.arange(50))])


class TestApplySeamFilter:
    def test_constant_series_unchanged(self):
        filt = SeamFilter(beta=UNIFORM_BETA)
        series = np.full(16, 3.3)
        out = apply_seam_filter(series, [7], filt)
        np.testing.assert_allclose(out, series, rtol=1e-15)

    def test_unit_step_hand_values(self):
        filt = SeamFilter(beta=UNIFORM_BETA)
        series = np.array([1.0, 1, 1, 1, 2, 2, 2, 2])
        out = apply_seam_filter(series, [3], filt)
        np.testing.assert_allclose(out, [1, 1, 1.125, 1.25, 1.75, 1.875, 2, 2], rtol=1e-12)
        # the filtered seam steps strictly less than the raw unit jump
        assert np.max(np.abs(np.diff(out))) < 1.0

    def test_empty_seams_identity(self):
        filt = SeamFilter(beta=UNIFORM_BETA)
        series = np.arange(10.0)
        np.testing.assert_array_equal(apply_seam_filter(series, [], filt), series)

    def test_uses_original_neighbours(self):
        # two nearby seams: replacements must come from pre-filter values
        filt = SeamFilter(beta=UNIFORM_BETA)
        rng = np.random.default_rng(0)
        series = rng.uniform(1, 2, 20)
        out = apply_seam_filter(series, [8, 12], filt)
        for j in (8, 12):
            for i in range(j - 1, j + 3):
                assert out[i] == pytest.approx(
                    float(np.dot(UNIFORM_BETA, series[i - 2 : i + 3])), rel=1e-15
                )

    def test_seam_too_close_to_edge(self):
        filt = SeamFilter(beta=UNIFORM_BETA)
        with pytest.raises(SeamTooCloseToEdge):
            apply_seam_filter(np.ones(10), [2], filt)
        with pytest.raises(SeamTooCloseToEdge):
            apply_seam_filter(np.ones(10), [6], filt)


class TestScaleToParent:
    def test_basic(self):
        out = scale_to_parent([[0.9, 1.1]], [50.0])
        np.testing.assert_allclose(out, [[45.0, 55.0]], rtol=1e-12)

    def test_non_mean_one_child(self):
        out = scale_to_parent([[2.0, 2.0]], [3.0])
        np.testing.assert_allclose(out, [[3.0, 3.0]], rtol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_mean_is_parent(self, seed):
        rng = np.random.default_rng(seed)
        child = mean_one(rng.uniform(0.5, 1.5, 168)).samples
        parent = float(rng.uniform(1.0, 200.0))
        out = scale_to_parent(child[None, :], [parent])
        assert out.shape == (1, 168)
        assert out.mean() == pytest.approx(parent, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateProfile):
            scale_to_parent([[1.0, 1.0]], [0.0])
        with pytest.raises(DegenerateProfile):
            scale_to_parent([[1.0, 1.0], [-1.0, 0.5]], [2.0, 2.0])


class TestAddHourTrend:
    def test_constant_context(self):
        out = add_hour_trend(np.zeros((1, 120)), np.full((1, 5), 7.0))
        assert out.shape == (1, 120)
        np.testing.assert_allclose(out, 7.0, rtol=1e-14)

    def test_quartic_context_exact(self):
        q = np.array([1.0, -0.3, 0.02, 0.05, -0.01])  # coefficients, low first
        pos = np.arange(-2.0, 3.0)
        context = np.polynomial.polynomial.polyval(pos, q)
        out = add_hour_trend(np.zeros((1, 120)), context[None, :])[0]
        x = (np.arange(120) - 59.5) / 120.0
        want = np.polynomial.polynomial.polyval(x, q)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_peak_context_against_lagrange_oracle(self):
        context = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        out = add_hour_trend(np.zeros((1, 120)), context[None, :])[0]
        pos = np.arange(-2.0, 3.0)
        x = (np.arange(120) - 59.5) / 120.0

        def lagrange(xv):
            total = 0.0
            for i in range(5):
                term = context[i]
                for j in range(5):
                    if j != i:
                        term *= (xv - pos[j]) / (pos[i] - pos[j])
                total += term
            return total

        oracle = np.array([lagrange(v) for v in x])
        np.testing.assert_allclose(out, oracle, atol=1e-10)
        # centre of the hour sits between samples 59 and 60
        mid = 0.5 * (out[59] + out[60])
        assert mid == pytest.approx(lagrange(0.0), abs=1e-3)

    def test_shifted_positions(self):
        q = np.array([2.0, 0.1, -0.05, 0.0, 0.002])
        pos = np.arange(0.0, 5.0)  # edge window: hour of interest first
        context = np.polynomial.polynomial.polyval(pos, q)
        out = add_hour_trend(np.zeros((1, 120)), context[None, :], positions=pos[None, :])[0]
        x = (np.arange(120) - 59.5) / 120.0
        np.testing.assert_allclose(out, np.polynomial.polynomial.polyval(x, q), atol=1e-10)

    def test_detrend_then_retrend_recovers_quartic(self):
        # degree-4 input over the five-hour window: detrending removes it
        # exactly and the interpolated trend through the five hourly values
        # puts it back
        idx = np.arange(600.0)
        hours = (idx - 299.5) / 120.0  # window abscissa in hour units
        q = np.array([1.0, 0.05, -0.02, 0.004, 0.001])
        window = np.polynomial.polynomial.polyval(hours, q)
        detrended, _ = detrend_hour(window)
        np.testing.assert_allclose(detrended, 0.0, atol=1e-9)
        centres = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        context = np.polynomial.polynomial.polyval(centres, q)
        out = add_hour_trend(detrended[None, :], context[None, :])[0]
        np.testing.assert_allclose(out, window[240:360], atol=1e-8)


def seed_add_hour_trend(hour_samples, hourly_context, positions):
    """One hour at a time, as first written: the oracle for the batched trend."""
    hour = np.asarray(hour_samples, dtype=np.float64)
    context = np.asarray(hourly_context, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.float64)
    vander = np.vander(pos, 5, increasing=True)
    coeffs = np.linalg.solve(vander, context)
    x = (np.arange(120) - 59.5) / 120
    trend = np.polynomial.polynomial.polyval(x, coeffs)
    return hour + trend


# centred window and the four shifted windows used at series edges
WINDOWS = np.array([[s + i for i in range(5)] for s in (-2, -1, 0, -3, -4)])


class TestBatchedHourTrend:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_hours=st.integers(5, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_hour_oracle_bit_for_bit(self, data, n_hours, seed):
        context = data.draw(
            arrays(
                np.float64,
                (n_hours, 5),
                elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            )
        )
        shifts = data.draw(arrays(np.int64, n_hours, elements=st.integers(0, 4)))
        hours = np.random.default_rng(seed).normal(size=(n_hours, 120))
        positions = WINDOWS[shifts]
        got = add_hour_trend(hours, context, positions)
        want = np.array(
            [seed_add_hour_trend(hours[h], context[h], positions[h]) for h in range(n_hours)]
        )
        np.testing.assert_array_equal(got, want)


class TestDrivingLevel:
    @pytest.mark.parametrize(
        "text,level,factor",
        [
            ("30/s", Level.L1, 1),
            ("1/s", Level.L1, 30),
            ("1/30s", Level.L2, 1),
            ("1/10min", Level.L2, 20),
            ("1/h", Level.L3, 1),
            ("1/d", Level.L3, 24),
            ("1/wk", Level.L4, 1),
            ("1/2wk", Level.L4, 2),
        ],
    )
    def test_selection(self, text, level, factor):
        assert driving_level(parse_resolution(text)) == (level, factor)

    def test_non_divisible_rejected(self):
        with pytest.raises(RequestError):
            driving_level(parse_resolution("7/h"))


class TestRequestValidation:
    def base(self, **kw):
        args = dict(
            n_residential=1,
            n_industrial=0,
            resolution=parse_resolution("1/h"),
            duration_s=86400.0,
            season=None,
            seed=5,
        )
        args.update(kw)
        return GenerationRequest(**args)

    def test_valid(self):
        self.base().validate()

    def test_no_loads(self):
        with pytest.raises(RequestError):
            self.base(n_residential=0).validate()

    def test_duration_below_period(self):
        with pytest.raises(RequestError):
            self.base(duration_s=1800.0).validate()

    def test_explicit_season_too_long(self):
        with pytest.raises(RequestError):
            self.base(season=Season.SUMMER, duration_s=14 * WEEK_S).validate()

    def test_explicit_season_13_weeks_ok(self):
        self.base(season=Season.SUMMER, duration_s=13 * WEEK_S).validate()

    def test_bad_base_mw(self):
        with pytest.raises(RequestError):
            self.base(base_mw=0.0).validate()


SPIED = ("gan_generate", "svd_generate", "scale_to_parent", "apply_seam_filter")


@pytest.fixture
def calls(monkeypatch):
    """Spy on the calls synthesize makes: for each name in SPIED, a list of
    its calls, each with its arguments by parameter name and its ``result``.
    The spies forward to the real functions, so the output is unchanged."""
    log = {name: [] for name in SPIED}
    for name in SPIED:
        real = getattr(compose, name)

        def spy(*args, _real=real, _log=log[name], **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            result = _real(*args, **kwargs)
            _log.append(SimpleNamespace(**bound.arguments, result=result))
            return result

        monkeypatch.setattr(compose, name, spy)
    return log


def generated(calls, models):
    """(level, count) of each generator call, in call order per generator."""
    level_of = {id(models.l1): Level.L1, id(models.l2): Level.L2, id(models.l3): Level.L3}
    return [(level_of[id(c.model)], c.count) for c in calls["gan_generate"]] + [
        (Level.L4, c.count) for c in calls["svd_generate"]
    ]


def window_offsets(series, window):
    """Every offset at which ``window`` equals a slice of ``series``."""
    n = len(window)
    return [k for k in range(len(series) - n + 1) if np.array_equal(series[k : k + n], window)]


class TestSynthesize:
    def test_one_hour_at_half_minute(self, tiny_models):
        req = GenerationRequest(1, 0, parse_resolution("1/30s"), 3600.0, seed=1)
        times, out = synthesize(req, tiny_models)
        assert out.shape == (1, 120)
        assert times[1] - times[0] == 30.0

    def test_one_year_weekly(self, tiny_models):
        req = GenerationRequest(1, 0, parse_resolution("1/wk"), YEAR_S, seed=2)
        _, out = synthesize(req, tiny_models)
        assert out.shape == (1, 52)

    def test_week_mean_equals_yearly_value(self, tiny_models, calls):
        req = GenerationRequest(0, 1, parse_resolution("1/h"), WEEK_S, seed=3)
        _, out = synthesize(req, tiny_models)
        (year,) = calls["svd_generate"]
        (scaled,) = calls["scale_to_parent"]
        assert scaled.parent_values[0] == year.result[0, 0]  # week 0 of year 0
        np.testing.assert_allclose(scaled.result.mean(), scaled.parent_values[0], rtol=1e-9)
        assert calls["apply_seam_filter"] == []  # one week: no junction
        np.testing.assert_allclose(out[0], scaled.result[0], rtol=1e-12)

    def test_levels_generated_lazily(self, tiny_models, calls):
        req = GenerationRequest(1, 0, parse_resolution("1/h"), 86400.0, seed=4)
        synthesize(req, tiny_models)
        assert generated(calls, tiny_models) == [(Level.L3, 1), (Level.L4, 1)]
        calls["gan_generate"].clear()
        calls["svd_generate"].clear()
        req = GenerationRequest(1, 0, parse_resolution("30/s"), 600.0, seed=4)
        synthesize(req, tiny_models)
        # 10 min: one week, 1 h of half-minute profiles, 20 of 30 Hz ones
        assert generated(calls, tiny_models) == [
            (Level.L3, 1), (Level.L2, 1), (Level.L1, 20), (Level.L4, 1)
        ]

    def test_weekly_driving_skips_l3(self, tiny_models, calls):
        req = GenerationRequest(1, 0, parse_resolution("1/wk"), 4 * WEEK_S, seed=4)
        synthesize(req, tiny_models)
        assert generated(calls, tiny_models) == [(Level.L4, 1)]

    def test_deterministic(self, tiny_models):
        req = GenerationRequest(2, 1, parse_resolution("1/10min"), 7200.0, seed=9)
        t1, a = synthesize(req, tiny_models)
        t2, b = synthesize(req, tiny_models)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(t1, t2)

    def test_different_loads_differ(self, tiny_models):
        req = GenerationRequest(2, 0, parse_resolution("1/h"), 86400.0, seed=10)
        _, out = synthesize(req, tiny_models)
        assert not np.array_equal(out[0], out[1])

    def test_positive_output(self, tiny_models):
        req = GenerationRequest(1, 1, parse_resolution("1/10min"), 6 * 3600.0, seed=11)
        _, out = synthesize(req, tiny_models)
        assert np.all(out > 0)

    def test_base_mw_scales_output(self, tiny_models):
        req1 = GenerationRequest(1, 0, parse_resolution("1/h"), 86400.0, seed=12, base_mw=1.0)
        req2 = GenerationRequest(1, 0, parse_resolution("1/h"), 86400.0, seed=12, base_mw=75.0)
        _, a = synthesize(req1, tiny_models)
        _, b = synthesize(req2, tiny_models)
        np.testing.assert_allclose(b, 75.0 * a, rtol=1e-12)

    def test_aggregation_ordering(self, tiny_models):
        outs = {}
        for metric in Metric:
            req = GenerationRequest(
                1, 0, parse_resolution("1/10min"), 7200.0, seed=13, aggregation=metric
            )
            _, outs[metric] = synthesize(req, tiny_models)
        assert np.all(outs[Metric.MIN] <= outs[Metric.MEAN] + 1e-12)
        assert np.all(outs[Metric.MEAN] <= outs[Metric.MAX] + 1e-12)

    def test_full_year_seam_count_and_no_bottom_filtering(self, tiny_models, calls):
        req = GenerationRequest(1, 0, parse_resolution("1/h"), YEAR_S, seed=14)
        _, out = synthesize(req, tiny_models)
        assert out.shape == (1, 52 * 168)
        (filtered,) = calls["apply_seam_filter"]
        assert list(filtered.seam_indices) == [168 * (k + 1) - 1 for k in range(51)]
        assert filtered.series.size == 52 * 168  # the hourly series
        np.testing.assert_array_equal(out[0], filtered.result)
        # half-minute and 30 Hz junctions are never filtered
        calls["apply_seam_filter"].clear()
        synthesize(GenerationRequest(1, 0, parse_resolution("30/s"), 600.0, seed=14), tiny_models)
        synthesize(GenerationRequest(1, 0, parse_resolution("1/30s"), 8 * 86400.0, seed=14), tiny_models)
        (filtered,) = calls["apply_seam_filter"]
        assert list(filtered.seam_indices) == [167]
        assert filtered.series.size == 2 * 168

    def test_full_year_weekly_means_match_before_filter(self, tiny_models, calls):
        req = GenerationRequest(0, 1, parse_resolution("1/h"), YEAR_S, seed=15)
        synthesize(req, tiny_models)
        (year,) = calls["svd_generate"]
        (scaled,) = calls["scale_to_parent"]
        (filtered,) = calls["apply_seam_filter"]
        np.testing.assert_array_equal(scaled.parent_values, year.result[0])
        weekly_means = scaled.result.mean(axis=1)
        np.testing.assert_allclose(weekly_means, scaled.parent_values, rtol=1e-9)
        np.testing.assert_array_equal(filtered.series, scaled.result.ravel())

    def test_year_plus_day_extends_final_week(self, tiny_models, calls):
        req = GenerationRequest(1, 0, parse_resolution("1/d"), YEAR_S + 86400.0, seed=16)
        _, out = synthesize(req, tiny_models)
        assert out.shape == (1, 365)
        (weeks,) = calls["gan_generate"]
        assert len(weeks.labels) == 53
        assert weeks.labels[-1][1] is Season.WINTER
        (scaled,) = calls["scale_to_parent"]
        assert scaled.parent_values[-1] == scaled.parent_values[-2]

    def test_multi_year_concatenates_independent_years(self, tiny_models, calls):
        req = GenerationRequest(1, 0, parse_resolution("1/wk"), 2 * YEAR_S, seed=17)
        _, out = synthesize(req, tiny_models)
        assert out.shape == (1, 104)
        assert generated(calls, tiny_models) == [(Level.L4, 2)]
        np.testing.assert_array_equal(out[0], calls["svd_generate"][0].result.ravel())
        assert not np.array_equal(out[0, :52], out[0, 52:])

    def test_explicit_season_labels_and_offset(self, tiny_models, calls):
        req = GenerationRequest(
            1, 0, parse_resolution("1/h"), 86400.0, seed=18, season=Season.SUMMER
        )
        _, out = synthesize(req, tiny_models)
        assert out.shape == (1, 24)
        (weeks,) = calls["gan_generate"]
        assert all(season is Season.SUMMER for _, season in weeks.labels)
        assert calls["svd_generate"] == []  # single week, explicit season
        (scaled,) = calls["scale_to_parent"]
        offsets = window_offsets(scaled.result[0], out[0])
        assert offsets and all(0 <= k <= 168 - 24 for k in offsets)

    def test_auto_yearly_starts_january(self, tiny_models, calls):
        req = GenerationRequest(1, 0, parse_resolution("1/h"), 86400.0, seed=19)
        _, out = synthesize(req, tiny_models)
        assert _plan_weeks(req, 1, 0) == [(0, 0, Season.WINTER)]
        (year,) = calls["svd_generate"]
        (scaled,) = calls["scale_to_parent"]
        assert scaled.parent_values[0] == year.result[0, 0]
        np.testing.assert_array_equal(out[0], scaled.result[0, :24])  # offset 0

    def test_seasonal_windows_stay_in_season(self, tiny_models, calls):
        assert _extension_weeks(10 * WEEK_S) == (10, False)
        for seed in range(6):
            req = GenerationRequest(
                1, 0, parse_resolution("1/d"), 10 * WEEK_S, seed=seed, season=Season.WINTER
            )
            synthesize(req, tiny_models)
            plan = _plan_weeks(req, 10, 0)
            assert all(season_of_week(week) is Season.WINTER for _, week, _ in plan)
            weeks, year, scaled = (calls[name].pop() for name in SPIED[:3])
            assert all(season is Season.WINTER for _, season in weeks.labels)
            want = [year.result[0, week] for _, week, _ in plan]
            np.testing.assert_array_equal(scaled.parent_values, want)

    def test_residential_loads_first(self, tiny_models):
        req = GenerationRequest(1, 1, parse_resolution("1/h"), WEEK_S, seed=20)
        assert req.load_class_of(0) is LoadClass.MAINLY_RESIDENTIAL
        assert req.load_class_of(1) is LoadClass.MAINLY_INDUSTRIAL
