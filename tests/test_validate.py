"""Fidelity metrics: Wasserstein distance, PSD, seam stats, AR transfer."""

import numpy as np
import pytest

from loadsynth import cli
from loadsynth.errors import InsufficientData
from loadsynth.validate import (
    HISTOGRAM_BINS,
    SeamStats,
    ar_forecast_eval,
    hold_weekly_series,
    psd,
    seam_stats,
    wasserstein_1d,
    wasserstein_histogram,
)


class TestWasserstein:
    def test_identical_sets(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=50)
        assert wasserstein_1d(a, a) == 0.0

    def test_point_masses(self):
        assert wasserstein_1d([0.0], [1.0]) == pytest.approx(1.0)

    def test_uniform_shift_half(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, 1000)
        b = rng.uniform(0.5, 1.5, 1000)
        d = wasserstein_1d(a, b)
        assert d == pytest.approx(0.5, abs=0.05)
        # independent oracle for equal-size sets: mean |x_(i) - y_(i)|
        oracle = np.mean(np.abs(np.sort(a) - np.sort(b)))
        assert d == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_size_sorted_difference_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        n = int(rng.integers(2, 300))
        a = rng.normal(0, 2, n)
        b = rng.normal(1, 0.5, n)
        oracle = np.mean(np.abs(np.sort(a) - np.sort(b)))
        assert wasserstein_1d(a, b) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_and_triangle_inequality(self, seed):
        rng = np.random.default_rng(20 + seed)
        a = rng.normal(size=int(rng.integers(5, 80)))
        b = rng.uniform(-2, 2, int(rng.integers(5, 80)))
        c = rng.gamma(2.0, size=int(rng.integers(5, 80)))
        assert wasserstein_1d(a, b) == pytest.approx(wasserstein_1d(b, a), rel=1e-12)
        assert wasserstein_1d(a, c) <= wasserstein_1d(a, b) + wasserstein_1d(b, c) + 1e-12

    @pytest.mark.parametrize("shift", [-3.0, 0.25, 1.75])
    def test_constant_shift_is_shift_size(self, shift):
        rng = np.random.default_rng(33)
        a = rng.normal(size=200)
        assert wasserstein_1d(a, a + shift) == pytest.approx(abs(shift), rel=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            wasserstein_1d([], [1.0])

    def test_histogram_parity_with_exact(self):
        rng = np.random.default_rng(44)
        a = rng.normal(0, 1, 5000)
        b = rng.normal(0.3, 1.2, 5000)
        exact = wasserstein_1d(a, b)
        hist = wasserstein_histogram(a, b)
        binwidth = (max(a.max(), b.max()) - min(a.min(), b.min())) / HISTOGRAM_BINS
        assert abs(hist - exact) < 2 * binwidth

    def test_histogram_identical_degenerate(self):
        assert wasserstein_histogram([2.0, 2.0], [2.0]) == 0.0


class TestPsd:
    def test_constant_profiles_all_dc(self):
        freqs, dens = psd(np.full((1, 64), 3.0), 1.0)
        assert freqs[0] == 0.0
        assert dens[0] > 0
        assert np.all(dens[1:] < 1e-12 * dens[0])

    def test_pure_sinusoid_single_bin(self):
        n, period = 128, 0.5
        t = np.arange(n) * period
        f0 = 4 / (n * period)  # bin-aligned
        freqs, dens = psd((2.0 + np.sin(2 * np.pi * f0 * t))[None, :], period)
        k = int(np.argmin(np.abs(freqs - f0)))
        others = np.delete(dens[1:], k - 1)
        assert dens[k] > 1e6 * np.max(others)

    @pytest.mark.parametrize("n", [64, 65, 120, 900])
    def test_parseval(self, n):
        rng = np.random.default_rng(n)
        samples = rng.uniform(0.1, 2.0, n)
        period = 1 / 30
        freqs, dens = psd(samples[None, :], period)
        binwidth = 1.0 / (n * period)
        power_freq = np.sum(dens) * binwidth
        power_time = np.mean(samples**2)
        assert power_freq == pytest.approx(power_time, rel=1e-9)

    def test_nonnegative_and_nyquist(self):
        rng = np.random.default_rng(5)
        profs = rng.uniform(1, 2, (4, 120))
        freqs, dens = psd(profs, 30.0)
        assert np.all(dens >= 0)
        assert freqs[-1] == pytest.approx(1 / (2 * 30.0))
        per_row = [psd(row[None, :], 30.0)[1] for row in profs]
        np.testing.assert_allclose(dens, np.mean(per_row, axis=0), rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one profile"):
            psd(np.empty((0, 8)), 1.0)


class TestSeamStats:
    def test_one_percent_step(self):
        st = seam_stats([100.0, 101.0], [0])
        assert st.mean_pct == pytest.approx(1.0)
        assert st.std_pct == 0.0
        assert st.n_seams == 1

    def test_fifty_percent_drop(self):
        st = seam_stats([2.0, 1.0], [0])
        assert st.mean_pct == pytest.approx(50.0)

    def test_constant_series_zero(self):
        st = seam_stats(np.full(10, 5.0), [2, 5, 8])
        assert (st.mean_pct, st.std_pct) == (0.0, 0.0)

    def test_no_seams(self):
        with pytest.raises(ValueError, match="no seam"):
            seam_stats([1.0, 2.0], [])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            seam_stats([1.0, 2.0], [1])

    def test_invariants(self):
        with pytest.raises(ValueError):
            SeamStats(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            SeamStats(-1.0, 1.0, 3)


class TestArForecast:
    def test_exact_ar_process_recovered(self):
        # build a noise-free AR(36) realization from known coefficients
        rng = np.random.default_rng(8)
        coeffs = np.zeros(36)
        coeffs[0], coeffs[1], coeffs[35] = 0.5, 0.3, 0.1  # stable, sums < 1
        series = []
        for _ in range(3):
            s = list(10 + rng.uniform(-0.5, 0.5, 36))
            for _ in range(400):
                past = s[-36:][::-1]
                s.append(float(np.dot(coeffs, past)) + 0.9)  # constant drive
            series.append(np.array(s))
        report = ar_forecast_eval(series[:2], series[2:], lags=36)
        assert report.mean_ape_pct < 0.01

    def test_constant_series_perfect(self):
        train = [np.full(200, 7.0)]
        test = [np.full(200, 7.0)]
        report = ar_forecast_eval(train, test)
        assert report.mean_ape_pct == pytest.approx(0.0, abs=1e-8)
        assert report.std_ape_pct == pytest.approx(0.0, abs=1e-8)

    def test_too_short(self):
        with pytest.raises(ValueError, match="training series of length 37"):
            ar_forecast_eval([np.ones(37)], [np.ones(200)])
        with pytest.raises(ValueError, match="test series of length 30"):
            ar_forecast_eval([np.ones(200)], [np.ones(30)])

    def test_report_needs_hundred_predictions(self):
        # 40 - 36 = 4 predictions; the function alone checks the minimum
        with pytest.raises(InsufficientData, match="only 4 test predictions; the report needs >= 100"):
            ar_forecast_eval([np.ones(200)], [np.ones(40)])

    def test_too_few_predictions_exit_3(self, monkeypatch, capsys):
        # the check's error family is the one main maps to exit 3, in one line
        monkeypatch.setattr(cli, "cmd_validate", lambda args: ar_forecast_eval([np.ones(200)], [np.ones(40)]))
        assert cli.main(["validate", "--data", "data", "--output-dir", "out"]) == 3
        assert capsys.readouterr().err == "error: only 4 test predictions; the report needs >= 100\n"


class TestHoldWeekly:
    def test_step_expansion(self):
        out = hold_weekly_series(np.array([1.0, 2.0]), 604_800.0 / 4, 6)
        np.testing.assert_array_equal(out, [1, 1, 1, 1, 2, 2])

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            hold_weekly_series(np.ones(2), 604_799.0, 3)
