"""Phasor conversion, level extraction, detrending, and dataset files."""

import math

import numpy as np
import pytest

from loadsynth.core import Level, LoadClass, Metric, Normalization, Season, downsample
from loadsynth.errors import InsufficientData, MissingChannel, WindowTooShort
from loadsynth.ingest import (
    DETREND_CENTER,
    DETREND_WINDOW,
    PHASOR_HEADER,
    PhasorTable,
    compute_bus_load,
    detrend_hour,
    extract_l2_profiles,
    extract_level_datasets,
    extract_levels_from_block_means,
    read_level_datasets,
    read_phasor_csv,
    write_level_datasets,
    write_phasor_csv,
)
from loadsynth.toydata import ToyLoadConfig, simulate_block_means


def table(phasors):
    """30 Hz PhasorTable from (n_records, n_lines, 4) rows of (v_mag, v_ang, i_mag, i_ang)."""
    ph = np.asarray(phasors, dtype=np.float64)
    line_ids = tuple(f"line{i}" for i in range(ph.shape[1]))
    return PhasorTable(np.arange(ph.shape[0]) / 30.0, line_ids, *(ph[..., f].copy() for f in range(4)))


def random_phasors(rng, shape, min_mag=0.5):
    """(*shape, 4) random (v_mag, v_ang, i_mag, i_ang)."""
    mags = [rng.uniform(min_mag, 2.0, shape) for _ in range(2)]
    angles = [rng.uniform(-3, 3, shape) for _ in range(2)]
    return np.stack([mags[0], angles[0], mags[1], angles[1]], axis=-1)


def complex_power(v_mag, v_ang, i_mag, i_ang):
    return (v_mag * np.exp(1j * v_ang) * np.conj(i_mag * np.exp(1j * i_ang))).real


class TestComputeBusLoad:
    def test_unity_power_factor(self):
        out = compute_bus_load(table([[(1.0, 0.0, 2.0, 0.0)]]))
        np.testing.assert_allclose(out, [2.0])

    def test_pure_export(self):
        out = compute_bus_load(table([[(1.0, 0.0, 1.0, math.pi)]]))
        np.testing.assert_allclose(out, [-1.0])

    def test_two_lines_against_complex_oracle(self):
        deg = math.pi / 180.0
        phasors = [(1.0, 0.0, 1.0, -30 * deg), (1.0, 30 * deg, 2.0, 0.0)]
        out = compute_bus_load(table([phasors]))
        # independent route: complex multiply-accumulate
        oracle = sum(complex_power(*ph) for ph in phasors)
        assert oracle == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-12)
        np.testing.assert_allclose(out, [oracle], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_against_complex_oracle(self, seed):
        rng = np.random.default_rng(seed)
        phasors = random_phasors(rng, (10, 3), min_mag=0.1)
        oracle = [sum(complex_power(*ph) for ph in record) for record in phasors]
        np.testing.assert_allclose(compute_bus_load(table(phasors)), oracle, rtol=1e-12)

    def test_linear_in_currents(self):
        rng = np.random.default_rng(1)
        phasors = random_phasors(rng, 4)
        doubled = phasors * [1.0, 1.0, 2.0, 1.0]
        p1 = compute_bus_load(table([phasors]))
        p2 = compute_bus_load(table([doubled]))
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
        with pytest.raises(WindowTooShort):
            detrend_hour(np.ones(599))

    def test_window_too_long_is_a_bug(self):
        with pytest.raises(ValueError):
            detrend_hour(np.ones(601))


class TestExtraction:
    def test_constant_week_block_means(self):
        m30 = np.full(20_160, 3.0)  # one week of 30-second means
        ds = extract_levels_from_block_means(m30, LoadClass.MAINLY_RESIDENTIAL)
        assert len(ds.l3) == 1
        np.testing.assert_allclose(ds.l3[0].samples, 1.0, atol=1e-12)
        assert ds.l3[0].season is Season.WINTER
        assert all(np.allclose(p.samples, 0.0, atol=1e-10) for p in ds.l2)
        assert Level.L4 in ds.issues  # one week is less than a year

    def test_constant_30hz_five_hours(self):
        series = np.full(5 * 3600 * 30, 2.0)
        ds = extract_level_datasets(series, load_class=LoadClass.MAINLY_INDUSTRIAL)
        assert len(ds.l1) == 600
        np.testing.assert_allclose(ds.l1[0].samples, 1.0, atol=1e-12)
        assert len(ds.l2) == 1  # only hour 2 has the full context
        assert Level.L3 in ds.issues and Level.L4 in ds.issues

    def test_ninety_minutes_only_l1(self):
        series = np.full(90 * 60 * 30, 2.0)
        ds = extract_level_datasets(series)
        assert len(ds.l1) == 180
        assert not ds.l2 and Level.L2 in ds.issues
        assert Level.L3 in ds.issues and Level.L4 in ds.issues

    def test_two_years_gives_two_l4_profiles(self):
        cfg = ToyLoadConfig.residential(seed=31)
        m30 = simulate_block_means(cfg, 30.0, 2 * 52 * 20_160)
        ds = extract_levels_from_block_means(m30, cfg.load_class, max_l2_profiles=20)
        assert len(ds.l4) == 2
        assert all(len(p) == 52 for p in ds.l4)
        assert len(ds.l3) == 104
        assert abs(ds.l4[0].samples.mean() - 1.0) < 1e-9

    def test_l3_l4_bookkeeping_consistency(self):
        cfg = ToyLoadConfig.industrial(seed=32)
        m30 = simulate_block_means(cfg, 30.0, 52 * 20_160)
        ds = extract_levels_from_block_means(m30, cfg.load_class, max_l2_profiles=5)
        hourly = downsample(m30[: 52 * 20_160], 120, Metric.MEAN)
        weekly = downsample(hourly, 168, Metric.MEAN)
        for w, prof in enumerate(ds.l3):
            # the mean divided out of week w equals the raw weekly mean
            assert prof.source_mean == pytest.approx(weekly[w], abs=1e-9)
            # and the year profile was normalized against those same values
        year = ds.l4[0]
        np.testing.assert_allclose(
            year.samples * year.source_mean, weekly, rtol=1e-12
        )

    def test_season_tags_follow_week_map(self):
        cfg = ToyLoadConfig.residential(seed=33)
        m30 = simulate_block_means(cfg, 30.0, 52 * 20_160)
        ds = extract_levels_from_block_means(m30, cfg.load_class, max_l2_profiles=1)
        seasons = [p.season for p in ds.l3]
        assert seasons[0] is Season.WINTER
        assert seasons[15] is Season.SPRING
        assert seasons[30] is Season.SUMMER
        assert seasons[40] is Season.FALL
        assert seasons[51] is Season.WINTER

    def test_l2_subsampling_cap(self):
        m30 = np.full(20_160, 1.0) + 0.01 * np.sin(np.arange(20_160))
        profiles = extract_l2_profiles(m30, LoadClass.MAINLY_RESIDENTIAL, max_profiles=7)
        assert len(profiles) == 7
        assert all(p.normalization is Normalization.ZERO_MEAN_DETRENDED for p in profiles)
        assert all(len(p.trend_coeffs) == 5 for p in profiles)


class TestFiles:
    def test_phasor_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        phasors = random_phasors(rng, (12, 2))
        written = table(phasors)
        path = tmp_path / "phasors.csv"
        write_phasor_csv(path, written)
        np.testing.assert_array_equal(read_phasor_csv(path), compute_bus_load(written))

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
        with pytest.raises(MissingChannel, match="line0"):
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
        ds = extract_levels_from_block_means(m30, cfg.load_class, max_l2_profiles=4)
        full = extract_level_datasets(
            np.abs(np.random.default_rng(4).normal(5.0, 0.1, 4 * 900)),
            load_class=cfg.load_class,
        )
        ds.l1 = full.l1
        ds.issues.pop(Level.L1, None)
        write_level_datasets(ds, tmp_path)
        back = read_level_datasets(tmp_path)
        for level in Level:
            a, b = ds.of(level), back.of(level)
            assert len(a) == len(b)
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa.samples, pb.samples)
                assert pa.load_class == pb.load_class
                assert pa.season == pb.season
                assert pa.normalization == pb.normalization
                assert pa.trend_coeffs == pb.trend_coeffs
                assert pa.source_mean == pb.source_mean

    def test_read_missing_level_file_raises(self, tmp_path):
        ds = LevelDatasetsFactory()
        write_level_datasets(ds, tmp_path)
        (tmp_path / "level3.csv").unlink()
        with pytest.raises(InsufficientData, match="level 'l3'|l3"):
            read_level_datasets(tmp_path)


def LevelDatasetsFactory():
    series = np.full(5 * 3600 * 30, 2.0)
    ds = extract_level_datasets(series)
    m30 = np.full(52 * 20_160, 3.0)
    rest = extract_levels_from_block_means(m30, LoadClass.MAINLY_RESIDENTIAL, max_l2_profiles=3)
    ds.l3, ds.l4 = rest.l3, rest.l4
    return ds
