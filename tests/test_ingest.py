"""Phasor conversion, level extraction, detrending, and dataset files."""

import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsynth.core import (
    LEVEL_SPECS,
    Level,
    LoadClass,
    Metric,
    ProfileRowError,
    ProfileSet,
    Season,
    downsample,
    season_of_week,
)
from loadsynth import ingest
from loadsynth.errors import InsufficientData
from loadsynth.ingest import (
    DATASET_HEADER,
    DETREND_CENTER,
    DETREND_WINDOW,
    PHASOR_HEADER,
    _LEVEL_FILES,
    _META_FILE,
    LevelDatasets,
    _evenly_spaced,
    _meta_entry,
    compute_bus_load,
    detrend_hour,
    extract_l2_profiles,
    extract_level_datasets,
    extract_levels_from_block_means,
    read_level_datasets,
    read_phasor_csv,
    write_level_datasets,
)
from loadsynth.toydata import ToyLoadConfig, desk_level_datasets, simulate_block_means, simulate_ground_truth


def bus_load(phasors):
    """compute_bus_load of (n_records, n_lines, 4) rows of (v_mag, v_ang, i_mag, i_ang)."""
    ph = np.asarray(phasors, dtype=np.float64)
    return compute_bus_load(*(ph[..., f].copy() for f in range(4)))


def write_phasor_csv(path, phasors) -> None:
    """Write (n_records, n_lines, 4) phasors as 30 Hz phasor CSV rows, one per
    (record, line), lines named line0, line1, ..., floats by repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PHASOR_HEADER + "\n")
        for k, record in enumerate(np.asarray(phasors, dtype=np.float64).tolist()):
            for j, values in enumerate(record):
                fh.write(",".join([repr(k / 30.0), f"line{j}", *map(repr, values)]) + "\n")


def random_phasors(rng, shape, min_mag=0.5):
    """(*shape, 4) random (v_mag, v_ang, i_mag, i_ang)."""
    mags = [rng.uniform(min_mag, 2.0, shape) for _ in range(2)]
    angles = [rng.uniform(-3, 3, shape) for _ in range(2)]
    return np.stack([mags[0], angles[0], mags[1], angles[1]], axis=-1)


def complex_power(v_mag, v_ang, i_mag, i_ang):
    return (v_mag * np.exp(1j * v_ang) * np.conj(i_mag * np.exp(1j * i_ang))).real


class TestComputeBusLoad:
    def test_unity_power_factor(self):
        out = bus_load([[(1.0, 0.0, 2.0, 0.0)]])
        np.testing.assert_allclose(out, [2.0])

    def test_pure_export(self):
        out = bus_load([[(1.0, 0.0, 1.0, math.pi)]])
        np.testing.assert_allclose(out, [-1.0])

    def test_two_lines_against_complex_oracle(self):
        deg = math.pi / 180.0
        phasors = [(1.0, 0.0, 1.0, -30 * deg), (1.0, 30 * deg, 2.0, 0.0)]
        out = bus_load([phasors])
        # independent route: complex multiply-accumulate
        oracle = sum(complex_power(*ph) for ph in phasors)
        assert oracle == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-12)
        np.testing.assert_allclose(out, [oracle], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_against_complex_oracle(self, seed):
        rng = np.random.default_rng(seed)
        phasors = random_phasors(rng, (10, 3), min_mag=0.1)
        oracle = [sum(complex_power(*ph) for ph in record) for record in phasors]
        np.testing.assert_allclose(bus_load(phasors), oracle, rtol=1e-12)

    def test_linear_in_currents(self):
        rng = np.random.default_rng(1)
        phasors = random_phasors(rng, 4)
        doubled = phasors * [1.0, 1.0, 2.0, 1.0]
        p1 = bus_load([phasors])
        p2 = bus_load([doubled])
        np.testing.assert_array_equal(p2, 2.0 * p1)


def _poly_window(coeffs):
    u = (np.arange(DETREND_WINDOW) - 299.5) / 299.5
    return sum(c * u**p for p, c in enumerate(coeffs))


class TestDetrendHour:
    def test_exact_polynomial_gives_zeros(self):
        window = _poly_window([2.0, -1.0, 0.5, 0.3, -0.2])
        out, coeffs = detrend_hour(window)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)
        np.testing.assert_allclose(coeffs, [2.0, -1.0, 0.5, 0.3, -0.2], atol=1e-9)

    def test_constant_window(self):
        out, coeffs = detrend_hour(np.full(DETREND_WINDOW, 7.5))
        np.testing.assert_allclose(out, 0.0, atol=1e-10)
        np.testing.assert_allclose(coeffs, [7.5, 0, 0, 0, 0], atol=1e-9)

    def test_sinusoid_recovery_against_normal_equations_oracle(self):
        u = (np.arange(DETREND_WINDOW) - 299.5) / 299.5
        sinus = 0.05 * np.sin(40 * u)
        window = _poly_window([1.0, 0.2, -0.1, 0.05, 0.02]) + sinus
        out, _ = detrend_hour(window)

        # oracle: solve the degree-4 normal equations directly
        basis = np.vander(u, 5, increasing=True)
        coeffs = np.linalg.solve(basis.T @ basis, basis.T @ window)
        resid = (window - basis @ coeffs)[DETREND_CENTER]
        resid -= resid.mean()
        np.testing.assert_allclose(out, resid, atol=1e-6)

    def test_output_mean_is_zero(self):
        rng = np.random.default_rng(3)
        out, _ = detrend_hour(rng.uniform(0.5, 1.5, DETREND_WINDOW))
        assert abs(out.mean()) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_polynomial_invariance(self, seed):
        rng = np.random.default_rng(seed)
        signal = rng.normal(1.0, 0.05, DETREND_WINDOW)
        poly = _poly_window(rng.uniform(-1, 1, 5))
        a, _ = detrend_hour(signal)
        b, _ = detrend_hour(signal + poly)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_window_too_short(self):
        with pytest.raises(ValueError, match="must be 600 samples"):
            detrend_hour(np.ones(599))

    def test_window_too_long_is_a_bug(self):
        with pytest.raises(ValueError):
            detrend_hour(np.ones(601))


class TestExtraction:
    def test_constant_week_block_means(self):
        m30 = np.full(20_160, 3.0)  # one week of 30-second means
        ds = extract_levels_from_block_means(m30, LoadClass.MAINLY_RESIDENTIAL, 0.0, None)
        assert len(ds.l3) == 1
        np.testing.assert_allclose(ds.l3.samples[0], 1.0, atol=1e-12)
        assert ds.l3.season[0] is Season.WINTER
        np.testing.assert_allclose(ds.l2.samples, 0.0, atol=1e-10)
        assert Level.L4 in ds.issues  # one week is less than a year

    def test_constant_30hz_five_hours(self):
        series = np.full(5 * 3600 * 30, 2.0)
        ds = extract_level_datasets(series, 0.0, LoadClass.MAINLY_INDUSTRIAL, None, None)
        assert len(ds.l1) == 600
        np.testing.assert_allclose(ds.l1.samples[0], 1.0, atol=1e-12)
        assert len(ds.l2) == 1  # only hour 2 has the full context
        assert Level.L3 in ds.issues and Level.L4 in ds.issues

    def test_ninety_minutes_only_l1(self):
        series = np.full(90 * 60 * 30, 2.0)
        ds = extract_level_datasets(series, 0.0, LoadClass.MAINLY_RESIDENTIAL, None, None)
        assert len(ds.l1) == 180
        assert not ds.l2 and Level.L2 in ds.issues
        assert Level.L3 in ds.issues and Level.L4 in ds.issues

    def test_two_years_gives_two_l4_profiles(self):
        cfg = ToyLoadConfig.residential(seed=31)
        m30 = simulate_block_means(cfg, 30.0, 2 * 52 * 20_160)
        ds = extract_levels_from_block_means(m30, cfg.load_class, 0.0, 20)
        assert ds.l4.samples.shape == (2, 52)
        assert len(ds.l3) == 104
        assert abs(ds.l4.samples[0].mean() - 1.0) < 1e-9

    def test_l3_l4_bookkeeping_consistency(self):
        cfg = ToyLoadConfig.industrial(seed=32)
        m30 = simulate_block_means(cfg, 30.0, 52 * 20_160)
        ds = extract_levels_from_block_means(m30, cfg.load_class, 0.0, 5)
        hourly = downsample(m30[: 52 * 20_160], 120, Metric.MEAN)
        weekly = downsample(hourly, 168, Metric.MEAN)
        # the mean divided out of week w equals the raw weekly mean
        np.testing.assert_allclose(ds.l3.source_mean, weekly, rtol=0, atol=1e-9)
        # and the year profile was normalized against those same values
        np.testing.assert_allclose(ds.l4.samples[0] * ds.l4.source_mean[0], weekly, rtol=1e-12)

    def test_season_tags_follow_week_map(self):
        cfg = ToyLoadConfig.residential(seed=33)
        m30 = simulate_block_means(cfg, 30.0, 52 * 20_160)
        ds = extract_levels_from_block_means(m30, cfg.load_class, 0.0, 1)
        seasons = ds.l3.season
        assert seasons[0] is Season.WINTER
        assert seasons[15] is Season.SPRING
        assert seasons[30] is Season.SUMMER
        assert seasons[40] is Season.FALL
        assert seasons[51] is Season.WINTER

    def test_l2_subsampling_cap(self):
        m30 = np.full(20_160, 1.0) + 0.01 * np.sin(np.arange(20_160))
        profiles, skipped = extract_l2_profiles(m30, LoadClass.MAINLY_RESIDENTIAL, max_profiles=7)
        assert (len(profiles), skipped, profiles.level) == (7, 0, Level.L2)
        assert profiles.trend_coeffs.shape == (7, 5) and np.isfinite(profiles.trend_coeffs).all()

    def test_l2_skips_an_hour_whose_window_holds_a_non_finite_value(self):
        series = np.full(6 * 3600 * 30, 2.0)
        series[3 * 3600 * 30] = np.nan  # inside the windows of hours 2 and 3, the eligible ones
        ds = extract_level_datasets(series, 0.0, LoadClass.MAINLY_RESIDENTIAL, None, None)
        assert (len(ds.l1), len(ds.l2)) == (719, 0)
        assert ds.skipped == {Level.L1: 1, Level.L2: 2}
        assert Level.L2 not in ds.issues  # the hours were there: not a shortage
        series[3 * 3600 * 30] = np.inf
        series[-1] = np.nan  # hour 5: no hour's window reaches it
        ds = extract_level_datasets(series, 0.0, LoadClass.MAINLY_RESIDENTIAL, None, None)
        assert ds.skipped == {Level.L1: 2, Level.L2: 2}

    def test_windows_left_out_are_no_shortage(self):
        export = np.full(6 * 3600 * 30, -2.0)  # net export throughout
        ds = extract_level_datasets(export, 0.0, LoadClass.MAINLY_RESIDENTIAL, None, None)
        assert (len(ds.l1), len(ds.l2)) == (0, 0)
        assert ds.skipped == {Level.L1: 720}  # level-2 hours of negative mean are degenerate
        assert Level.L1 not in ds.issues and Level.L2 not in ds.issues

    def test_zero_caps_keep_no_profiles_and_say_so(self):
        ds = extract_level_datasets(np.full(6 * 3600 * 30, 2.0), 0.0, LoadClass.MAINLY_RESIDENTIAL, 0, 0)
        assert (len(ds.l1), len(ds.l2)) == (0, 0)
        assert ds.issues[Level.L1].endswith("the cap of 0 kept none of the 720 windows")
        assert ds.issues[Level.L2].endswith("the cap of 0 kept none of the 2 hours with the +-2 h context")
        short = extract_level_datasets(np.full(899, 2.0), 0.0, LoadClass.MAINLY_RESIDENTIAL, 0, 0)
        assert short.issues[Level.L1] == "level 1 needs at least 900 samples at 30 Hz; got 899"
        assert short.issues[Level.L2].startswith("level 2 needs at least 5 full hours of data for")


class TestFiles:
    def test_phasor_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        phasors = random_phasors(rng, (12, 2))
        path = tmp_path / "phasors.csv"
        write_phasor_csv(path, phasors)
        np.testing.assert_array_equal(read_phasor_csv(path), bus_load(phasors))

    def test_phasor_rejects_bad_spacing(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,line_id,v_mag,v_ang,i_mag,i_ang\n")
            fh.write("0.0,line0,1,0,1,0\n")
            fh.write("0.5,line0,1,0,1,0\n")
        with pytest.raises(InsufficientData, match="spacing"):
            read_phasor_csv(path)

    def test_phasor_missing_channel(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text(
            PHASOR_HEADER + "\n0.0,line0,1,0,1,0\n0.0,line1,1,0,1,0\n"
            "0.03333333333333333,line1,1,0,1,0\n"
        )
        with pytest.raises(InsufficientData, match="lacks phasors for line 'line0'"):
            read_phasor_csv(path)

    def test_phasor_record_rules(self, tmp_path):
        """Same-timestamp grouping, last duplicate wins, extra lines ignored, blanks skipped."""
        path = tmp_path / "rules.csv"
        rows = [
            "0.0,b#2,1,0,2,0", "0.0,a,1,0,5,0", "0.0,a,1,0,3,0", " \t", "",
            "0.03333333333333333,c,9,0,9,0", "0.03333333333333333,b#2,1,0,4,0",
            "0.03333333333333333,a,1,0,1,0",
        ]
        path.write_bytes((PHASOR_HEADER + "\r\n" + "\r\n".join(rows) + "\r\n").encode())
        # lines a and b#2; i_mag 3 + 2 and 1 + 4, not 5 + 2 nor 9 + 1 + 4
        np.testing.assert_array_equal(read_phasor_csv(path), [5.0, 5.0])

    def test_phasor_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(PHASOR_HEADER.encode() + b"\n0.0,l\xe9,1,0,1,0\n")
        with pytest.raises(InsufficientData, match="UTF-8"):
            read_phasor_csv(path)

    def test_phasor_header_only_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(PHASOR_HEADER + "\n\n")
        assert read_phasor_csv(path).shape == (0,)

    def test_level_dataset_round_trip(self, tmp_path):
        cfg = ToyLoadConfig.residential(seed=41)
        m30 = simulate_block_means(cfg, 30.0, 52 * 20_160)
        ds = extract_levels_from_block_means(m30, cfg.load_class, 0.0, 4)
        full = extract_level_datasets(
            np.abs(np.random.default_rng(4).normal(5.0, 0.1, 4 * 900)), 0.0, cfg.load_class, None, None
        )
        ds.l1 = full.l1
        ds.issues.pop(Level.L1, None)
        means = ds.l3.source_mean.copy()
        means[::2] = np.nan  # unknown means are left out of the sidecar
        ds.l3 = ProfileSet(Level.L3, ds.l3.samples, ds.l3.load_class, ds.l3.season, means)
        write_level_datasets(ds, tmp_path)
        back = read_level_datasets(tmp_path)
        assert np.isnan(back.l3.source_mean).sum() == 26
        for level in Level:
            a, b = ds.of(level), back.of(level)
            assert a.samples.tobytes() == b.samples.tobytes() and len(a) > 0
            assert (a.load_class, a.season) == (b.load_class, b.season)
            np.testing.assert_array_equal(a.source_mean, b.source_mean)  # NaN equals NaN
            if level is Level.L2:
                assert a.trend_coeffs.tobytes() == b.trend_coeffs.tobytes()
            else:
                assert a.trend_coeffs is b.trend_coeffs is None

    def test_read_missing_level_file_raises(self, tmp_path):
        ds = LevelDatasetsFactory()
        write_level_datasets(ds, tmp_path)
        (tmp_path / "level3.csv").unlink()
        with pytest.raises(InsufficientData, match="level 'l3'|l3"):
            read_level_datasets(tmp_path)

    @pytest.mark.parametrize("index", ["0", "5000"])  # a duplicate, one out of range
    def test_read_rejects_sample_indices_off_the_profile(self, tmp_path, index):
        write_level_datasets(LevelDatasetsFactory(), tmp_path)
        path = tmp_path / "level1.csv"
        text = path.read_text()
        row = "l1_000000,residential,,1,"
        assert row in text
        path.write_text(text.replace(row, f"l1_000000,residential,,{index},", 1))
        want = f"profile 'l1_000000' in {path} has 900 samples; level 'l1' profiles have one at each index 0..899"
        with pytest.raises(InsufficientData, match=re.escape(want)):
            read_level_datasets(tmp_path)


def LevelDatasetsFactory():
    series = np.full(5 * 3600 * 30, 2.0)
    ds = extract_level_datasets(series, 0.0, LoadClass.MAINLY_RESIDENTIAL, None, None)
    m30 = np.full(52 * 20_160, 3.0)
    rest = extract_levels_from_block_means(m30, LoadClass.MAINLY_RESIDENTIAL, 0.0, 3)
    ds.l3, ds.l4 = rest.l3, rest.l4
    return ds


# ----------------------------------------------------------------------
# level-1, level-3 and level-4 profiles against one window at a time
# ----------------------------------------------------------------------


def oracle_normalize_mean(window):
    """The arithmetic of the per-window ``normalize_mean`` that extraction
    used before it normalized windows as one array: (mean-one samples, the
    removed mean), or None for a degenerate window."""
    mean = float(window.mean())
    if mean <= 1e-9 * float(np.max(window, initial=0.0)):
        return None
    scaled = window / mean
    return scaled / scaled.mean(), mean  # pin the mean to 1


def oracle_mean_one_profiles(windows, load_class, seasons=None, picks=None):
    """``oracle_normalize_mean`` of each picked window in turn, as
    (samples, load class, season, mean) rows: a degenerate window is left
    out, and one with a negative or non-finite value is counted."""
    profiles, skipped = [], 0
    for w in range(len(windows)) if picks is None else picks:
        window = windows[w]
        if not (np.all(np.isfinite(window)) and window.min() >= 0 and np.isfinite(window.mean())):
            skipped += 1
            continue
        normalized = oracle_normalize_mean(window)
        if normalized is not None:
            season = None if seasons is None else seasons[w]
            profiles.append((normalized[0], load_class, season, normalized[1]))
    return profiles, skipped


def assert_same_profiles(got, want):
    assert len(got) == len(want)
    for i, (samples, load_class, season, mean) in enumerate(want):
        assert got.samples[i].tobytes() == samples.tobytes()  # bit for bit
        assert (got.load_class[i], got.season[i], got.source_mean[i]) == (load_class, season, mean)


class TestWindowsAsOneArray:
    def windows(self, seed, n_windows):
        rng = np.random.default_rng(seed)
        return rng.lognormal(rng.uniform(-5, 5, (n_windows, 1)), 0.3, (n_windows, 900))

    @pytest.mark.parametrize("seed", range(3))
    def test_l1_equals_mean_one_profile_of_each_window(self, seed):
        windows = self.windows(seed, 13)
        series = np.concatenate([windows.ravel(), np.ones(450)])  # a half window left over
        got = extract_level_datasets(series, 0.0, LoadClass.MAINLY_INDUSTRIAL, None, None)
        want, _ = oracle_mean_one_profiles(windows, LoadClass.MAINLY_INDUSTRIAL)
        assert_same_profiles(got.l1, want)
        assert not got.skipped

    def test_l1_thinned_by_max_l1(self):
        windows = self.windows(7, 20)
        got = extract_level_datasets(windows.ravel(), 0.0, LoadClass.MAINLY_RESIDENTIAL, 6, None)
        picks = _evenly_spaced(np.arange(20), 6)
        want, _ = oracle_mean_one_profiles(windows, LoadClass.MAINLY_RESIDENTIAL, picks=picks)
        assert len(want) == 6
        assert_same_profiles(got.l1, want)

    @pytest.mark.parametrize("max_l1", [None, 5])
    def test_l1_drops_a_degenerate_window(self, max_l1):
        windows = self.windows(8, 12)
        windows[[4, 6]] = 0.0  # mean 0: degenerate; window 6 is also one of the 5 picked
        got = extract_level_datasets(windows.ravel(), 0.0, LoadClass.MAINLY_RESIDENTIAL, max_l1, None)
        picks = None if max_l1 is None else _evenly_spaced(np.arange(12), max_l1)
        want, _ = oracle_mean_one_profiles(windows, LoadClass.MAINLY_RESIDENTIAL, picks=picks)
        assert len(want) < (12 if picks is None else picks.size)
        assert_same_profiles(got.l1, want)
        assert not got.skipped  # degenerate windows are not counted

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
    def test_l1_skips_and_counts_a_window_with_a_negative_or_non_finite_value(self, bad):
        windows = self.windows(9, 8)
        windows[2, 17] = bad  # net export, or a bad reading
        windows[6, 0] = bad
        got = extract_level_datasets(windows.ravel(), 0.0, LoadClass.MAINLY_RESIDENTIAL, None, None)
        want, skipped = oracle_mean_one_profiles(windows, LoadClass.MAINLY_RESIDENTIAL)
        assert skipped == 2 and len(want) == 6
        assert_same_profiles(got.l1, want)
        assert got.skipped == {Level.L1: 2}
        # a thinned run counts only the windows it picks
        assert extract_level_datasets(windows.ravel(), 0.0, LoadClass.MAINLY_RESIDENTIAL, 1, None).skipped == {}

    def test_l3_l4_equal_mean_one_profile_of_each_week_and_year(self):
        cfg = ToyLoadConfig.residential(seed=34)
        m30 = simulate_block_means(cfg, 30.0, 2 * 52 * 20_160 + 20_160)
        m30[3 * 20_160 : 4 * 20_160] = 0.0  # a degenerate week
        m30[60 * 20_160 : 61 * 20_160] *= -1.0  # a week, and so its year, of net export
        got = extract_levels_from_block_means(m30, cfg.load_class, 5 * 604_800.0, 1)
        hourly = downsample(m30, 120, Metric.MEAN)
        weeks = hourly.reshape(-1, 168)
        seasons = [season_of_week(5 + w) for w in range(len(weeks))]
        want3, skipped3 = oracle_mean_one_profiles(weeks, cfg.load_class, seasons)
        years = downsample(hourly, 168, Metric.MEAN)[: 2 * 52].reshape(2, 52)
        want4, skipped4 = oracle_mean_one_profiles(years, cfg.load_class)
        assert (len(want3), skipped3, len(want4), skipped4) == (103, 1, 1, 1)
        assert_same_profiles(got.l3, want3)
        assert_same_profiles(got.l4, want4)
        assert got.skipped == {Level.L3: 1, Level.L4: 1}

    def test_simulator_l1_equals_normalize_mean_of_each_window(self):
        fleet = [ToyLoadConfig.residential(seed=51, base_mw=30.0), ToyLoadConfig.industrial(seed=52)]
        got = desk_level_datasets(fleet, n_years=1, l1_windows_per_load=3, l2_profiles_per_load=1)
        starts = [30.0 * math.floor(j * 52 * 604_800.0 / 3 / 30.0) for j in range(3)]  # as the simulator spreads them
        want = []
        for cfg in fleet:
            windows = np.array([simulate_ground_truth(cfg, 30.0, start_time_s=t0) for t0 in starts])
            want += oracle_mean_one_profiles(windows, cfg.load_class)[0]
        assert len(want) == 6
        assert_same_profiles(got.l1, want)


# ----------------------------------------------------------------------
# the dataset writer against one row at a time
# ----------------------------------------------------------------------


def oracle_write_level_datasets(datasets: LevelDatasets, directory) -> None:
    """The writer that formatted and wrote one row per sample, kept as the
    reference for the bytes of every dataset file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta: dict[str, dict] = {}
    for level in Level:
        profiles = datasets.of(level)
        with open(directory / _LEVEL_FILES[level], "w", encoding="utf-8") as fh:
            fh.write(DATASET_HEADER + "\n")
            for i in range(len(profiles)):
                pid = f"{level.value}_{i:06d}"
                cls = profiles.load_class[i].value if profiles.load_class[i] else ""
                season = profiles.season[i].value if profiles.season[i] else ""
                for j, v in enumerate(profiles.samples[i]):
                    fh.write(f"{pid},{cls},{season},{j},{float(v)!r}\n")
                entry: dict = {}
                if not np.isnan(profiles.source_mean[i]):
                    entry["source_mean"] = float(profiles.source_mean[i])
                if level is Level.L2 and not np.isnan(profiles.trend_coeffs[i]).any():
                    entry["trend_coeffs"] = [float(c) for c in profiles.trend_coeffs[i]]
                if entry:
                    meta[pid] = entry
    with open(directory / _META_FILE, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=0)


_EDGE_VALUES = [0.0, 5e-324, 1e-300, 2.5e-308, 1e-5, 0.1, 1.0, 123456789.0, 1e16, 1e300]
_raw_values = st.sampled_from(_EDGE_VALUES) | st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)
_labels = dict(load_class=st.none() | st.sampled_from(LoadClass), season=st.none() | st.sampled_from(Season))
_source_means = st.just(math.nan) | st.floats(allow_nan=False, allow_infinity=False)
_trend_coeffs = st.just([math.nan] * 5) | st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5)


@st.composite
def profile_sets(draw, level):
    """Up to four valid rows at ``level``, each the repeat of a few drawn
    values: raw values made mean-one, or values in [-10, 10] made zero-mean
    at level 2."""
    length = LEVEL_SPECS[level].profile_length
    rows, labels = [], {key: [] for key in _labels}
    for _ in range(draw(st.integers(0, 4))):
        if level is Level.L2:
            values = np.resize(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12)), length)
            row = values - values.mean()  # negative values, and a mean within 1e-6 of 0
        else:
            values = np.resize(draw(st.lists(_raw_values, min_size=1, max_size=12)), length)
            with np.errstate(all="ignore"):
                row = values / values.mean()
                row /= row.mean()
            if not (np.isfinite(row).all() and abs(row.mean() - 1.0) <= 1e-9):
                row = np.ones(length)  # a degenerate draw
        rows.append(row)
        for key, strategy in _labels.items():
            labels[key].append(draw(strategy))
    n = len(rows)
    return ProfileSet(
        level,
        np.array(rows),
        labels["load_class"],
        labels["season"],
        draw(st.lists(_source_means, min_size=n, max_size=n)),
        np.array(draw(st.lists(_trend_coeffs, min_size=n, max_size=n))).reshape(n, 5) if level is Level.L2 else None,
    )


@st.composite
def level_datasets(draw):
    return LevelDatasets(*(draw(profile_sets(level)) for level in Level))


@settings(max_examples=150, deadline=None)
@given(datasets=level_datasets())
def test_dataset_writer_writes_the_bytes_of_one_row_at_a_time(tmp_path_factory, datasets):
    got, want = tmp_path_factory.mktemp("got"), tmp_path_factory.mktemp("want")
    write_level_datasets(datasets, got)
    oracle_write_level_datasets(datasets, want)
    for name in [*_LEVEL_FILES.values(), _META_FILE]:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_dataset_writer_matches_on_extracted_datasets(tmp_path):
    ds = LevelDatasetsFactory()
    series = np.random.default_rng(3).lognormal(0, 0.5, 3 * 900)
    ds.l1 = extract_level_datasets(series, 0.0, LoadClass.MAINLY_RESIDENTIAL, None, None).l1
    write_level_datasets(ds, tmp_path / "got")
    oracle_write_level_datasets(ds, tmp_path / "want")
    for name in [*_LEVEL_FILES.values(), _META_FILE]:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


# ----------------------------------------------------------------------
# the chunked dataset reader against the line-by-line reader
# ----------------------------------------------------------------------


def oracle_read_level_datasets(directory) -> LevelDatasets:
    """The reader that split and converted one line at a time, kept as the
    reference for the arrays, labels and sidecar values of every dataset and
    for the file and line or profile that each defect is reported at."""
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
        pids = list(rows)
        values = np.empty((len(pids), spec.profile_length))
        means, coeffs = np.full(len(pids), np.nan), np.full((len(pids), 5), np.nan)
        for i, (pid, (_, _, samples)) in enumerate(rows.items()):
            samples.sort()
            if [idx for idx, _ in samples] != list(range(spec.profile_length)):
                raise InsufficientData(
                    f"profile {pid!r} in {path} has {len(samples)} samples; level "
                    f"{level.value!r} profiles have one at each index 0..{spec.profile_length - 1}"
                )
            values[i] = [v for _, v in samples]
            try:
                means[i], coeffs[i] = _meta_entry(meta.get(pid, {}), level)
            except ValueError as exc:
                raise InsufficientData(f"{meta_path}: profile {pid!r}: {exc}") from exc
        classes, seasons, _ = zip(*rows.values()) if rows else ((), (), ())
        try:
            profiles = ProfileSet(level, values, classes, seasons, means, coeffs if level is Level.L2 else None)
        except ProfileRowError as exc:  # values off the level's normalization, say
            raise InsufficientData(f"profile {pids[exc.row]!r} in {path}: {exc.reason}") from exc
        setattr(out, level.value, profiles)
        if not profiles:
            out.issues[level] = f"dataset file {path} holds no profiles"
    return out


# '#' would start a comment in a default np.loadtxt call
_profile_ids = st.text(alphabet="ab_Z09#.-", min_size=1, max_size=6)
_DATASET_DEFECTS = [
    None, "header", "fields", "number", "underscore", "index_text", "index_value", "first_label", "later_label",
    "meta", "values",
]


# the known texts of the load_class (1) and season (2) columns
_LABEL_TEXTS = {1: ["", *(c.value for c in LoadClass)], 2: ["", *(s.value for s in Season)]}


@st.composite
def dataset_directories(draw):
    """(files {name: lines}, level_meta.json text, defect, (file, file line)
    of the defective line or None) of one dataset directory: per level up to
    four drawn profiles, their lines in profile blocks, shuffled within each
    profile or interleaved across profiles, blank lines among them, values
    written by repr or as %.17e, and at most one defect."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines, meta, firsts = {}, {}, []  # firsts: (file, data line) of each profile's first line
    for level in Level:
        name, profiles = _LEVEL_FILES[level], draw(profile_sets(level))
        pids = draw(st.lists(_profile_ids, min_size=len(profiles), max_size=len(profiles), unique=True))
        pids = [f"{level.value}{pid}" for pid in pids]  # one sidecar for all levels
        spell = draw(st.sampled_from([repr, "{:.17e}".format]))
        blocks = []
        for i, pid in enumerate(pids):
            cls, season = profiles.load_class[i], profiles.season[i]
            head = f"{pid},{cls.value if cls else ''},{season.value if season else ''}"
            blocks.append([f"{head},{j},{spell(float(v))}" for j, v in enumerate(profiles.samples[i])])
            entry = {"source_mean": float(profiles.source_mean[i])} if not np.isnan(profiles.source_mean[i]) else {}
            if level is Level.L2 and not np.isnan(profiles.trend_coeffs[i]).any():
                entry["trend_coeffs"] = profiles.trend_coeffs[i].tolist()
            if entry:
                meta[pid] = entry
        order = draw(st.sampled_from(["blocks", "shuffled", "interleaved"]))
        if order == "shuffled":
            blocks = [[block[j] for j in rng.permutation(len(block))] for block in blocks]
        if order == "interleaved":  # each profile's lines in order, profiles taking turns at random
            turns = rng.permutation(np.repeat(np.arange(len(blocks)), [len(b) for b in blocks]))
            pending = [iter(block) for block in blocks]
            lines[name] = [next(pending[p]) for p in turns.tolist()]
        else:
            lines[name] = [line for block in blocks for line in block]
        heads = [line.rsplit(",", 2)[0] for line in lines[name]]
        firsts += [(name, heads.index(head)) for head in dict.fromkeys(heads)]
    defect = draw(st.sampled_from(_DATASET_DEFECTS)) if firsts else None
    at = None  # (file, data line) of the defect
    if defect in ("fields", "number", "underscore", "index_text", "index_value", "values"):
        name = draw(st.sampled_from(sorted(n for n in lines if lines[n])))
        at = (name, draw(st.integers(0, len(lines[name]) - 1)))
        fields = lines[name][at[1]].split(",")
        if defect == "fields":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1.0"]
        elif defect == "number":
            fields[4] = draw(st.sampled_from(["abc", "", "1.2.3", "--1", "0x1p3"]))
        elif defect == "underscore":  # a number to Python's float, not to the C grammar
            fields[4] = "1_0"
        elif defect == "index_text":
            fields[3] = draw(st.sampled_from(["1.0", "x", ""]))
        elif defect == "index_value":  # a repeat, or an index off the profile
            fields[3] = str(draw(st.sampled_from([-1, int(fields[3]) ^ 1, 10_000])))
        else:  # off the level's normalization
            fields[4] = repr(float(fields[4]) + 1.0)
        lines[name][at[1]] = ",".join(fields)
    elif defect in ("first_label", "later_label"):
        name, k = draw(st.sampled_from(firsts))
        fields = lines[name][k].split(",")
        if defect == "later_label":
            k = lines[name].index(next(line for line in lines[name][k + 1 :] if line.startswith(fields[0] + ",")))
        column = draw(st.sampled_from([1, 2]))
        # an unknown label on a first line; on a later line, also a known one that differs
        choices = ["commercial", "Winter", "residential ", "autumn"]
        if defect == "later_label":
            choices += [c for c in _LABEL_TEXTS[column] if c != fields[column]]
        fields[column] = draw(st.sampled_from(choices))
        first = lines[name][k].split(",")
        lines[name][k] = ",".join([*fields[:3], *first[3:]])
        at = (name, k)
    meta_text = json.dumps(meta, sort_keys=True, indent=0)
    if defect == "meta":
        pid = draw(st.sampled_from(sorted(f"{lines[n][k].split(',')[0]}" for n, k in firsts)))
        bad = draw(st.sampled_from([[1, 2], {"source_mean": "x"}, {"mean": 1.0}, {"trend_coeffs": [1.0]}]))
        meta_text = json.dumps({**meta, pid: bad})
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    files, where = {}, None
    for name, data in lines.items():
        body = list(data)
        for _ in range(draw(st.integers(0, 3))):
            body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["", " ", "\t "])))
        if at is not None and at[0] == name:
            where = (name, [i for i, line in enumerate(body) if line.strip()][at[1]] + 2)
        header = DATASET_HEADER
        if defect == "header" and name == firsts[0][0]:
            header, where = DATASET_HEADER.replace("season", "seasons"), (name, 1)
        files[name] = newline.join([header, *body]) + newline
    return files, meta_text, defect, where


def _named(message: str):
    """(file, line or None, profile id or None) that an error message names."""
    where = re.search(r"([\w.]+\.(?:csv|json))(?: line (\d+))?", message)
    pid = re.search(r"profile '([^']*)'", message)
    return where.group(1), where.group(2) and int(where.group(2)), pid and pid.group(1)


def _read_outcome(reader, directory):
    try:
        return reader(directory)
    except InsufficientData as exc:  # exit 3 in every command that reads datasets
        return _named(str(exc))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chunked_dataset_reader_matches_the_line_reader(tmp_path_factory, data):
    files, meta_text, defect, where = data.draw(dataset_directories())
    directory = tmp_path_factory.mktemp("data")
    for name, text in files.items():
        (directory / name).write_bytes(text.encode("utf-8"))
    (directory / _META_FILE).write_text(meta_text, encoding="utf-8")
    want = _read_outcome(oracle_read_level_datasets, directory)
    with mock.patch.object(ingest, "PHASOR_CHUNK_ROWS", data.draw(st.integers(1, 300) | st.just(16_384))):
        got = _read_outcome(read_level_datasets, directory)
    if defect in ("later_label", "underscore"):  # rules the line reader did not have
        assert got[:2] == where
    elif defect == "header":  # the line reader named no line
        assert got[:2] == where and want[0] == where[0]
    elif isinstance(want, tuple):
        assert isinstance(got, tuple), defect
        # a line error names the file and line, any other the file and profile
        assert got[:2] == want[:2] if want[1] else got == want, (defect, got, want)
        if defect in ("fields", "number", "index_text", "first_label"):  # the line, not just the same one
            assert got[:2] == where
    else:
        assert isinstance(got, LevelDatasets), (defect, got)
        for level in Level:
            a, b = want.of(level), got.of(level)
            assert a.samples.tobytes() == b.samples.tobytes()
            assert (a.load_class, a.season) == (b.load_class, b.season)
            np.testing.assert_array_equal(a.source_mean, b.source_mean)  # NaN equals NaN
            if level is Level.L2:
                assert a.trend_coeffs.tobytes() == b.trend_coeffs.tobytes()
        assert got.issues == want.issues
