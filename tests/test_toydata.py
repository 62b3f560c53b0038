"""Ground-truth simulator: determinism, class contrast, block-mean math."""

import math

import numpy as np
import pytest

from loadsynth.core import LoadClass, Metric, downsample, season_of_week, Season, sub_seed
from loadsynth.toydata import (
    ToyLoadConfig,
    _ar1_block_moments,
    default_desk_configs,
    simulate_block_means,
    simulate_ground_truth,
)

YEAR_S = 52 * 604_800.0
WEEK_S = 604_800.0


def flat_config(noise=0.0, ar=0.0, base=42.0, seed=1):
    return ToyLoadConfig(
        load_class=LoadClass.MAINLY_RESIDENTIAL,
        base_mw=base,
        seasonal_amp=0.0,
        seasonal_tilt=0.0,
        daily_amp=0.0,
        daily_ripple=0.0,
        ar_coeff=ar,
        noise_rel_std=noise,
        seed=seed,
    )


class TestConfig:
    def test_invariants(self):
        for base in (0.0, float("nan"), math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite and positive"):
                flat_config(base=base)
        with pytest.raises(ValueError):
            flat_config(ar=1.0)
        with pytest.raises(ValueError):
            flat_config(noise=0.25)

    def test_noise_whose_variance_underflows_is_rejected(self):
        # the subnormal 2.2e-311 once reached a ZeroDivisionError in the block-noise draw
        with pytest.raises(ValueError, match="underflows"):
            flat_config(noise=2.2e-311, ar=0.6)
        for noise in (0.0, 1e-150):  # no noise, and a tiny level whose variance is normal
            values = simulate_block_means(flat_config(noise=noise, ar=0.6), 30.0, 4)
            assert np.all(np.isfinite(values))

    def test_industrial_yearly_nearly_flat(self):
        cfg = ToyLoadConfig.industrial(seed=0)
        t = np.linspace(0, YEAR_S, 4001)
        y = cfg.yearly(t)
        assert np.all(np.abs(y - 1.0) < 0.05)

    def test_residential_yearly_two_maxima(self):
        cfg = ToyLoadConfig.residential(seed=0)
        t = np.linspace(0, YEAR_S, 52_001)
        y = cfg.yearly(t)
        # winter peak at the year edges, summer peak near mid-year
        mid = slice(20_000, 32_000)
        assert y[0] > 1.15
        assert np.max(y[mid]) > 1.05
        # a genuine local max in summer: higher than late spring / early fall
        assert np.max(y[mid]) > y[16_000] and np.max(y[mid]) > y[36_000]


class TestGroundTruth:
    def test_all_modulation_off_gives_constant(self):
        cfg = flat_config()
        out = simulate_ground_truth(cfg, 30.0)
        assert out.shape == (900,)
        np.testing.assert_array_equal(out, np.full(900, 42.0))

    def test_deterministic_given_seed(self):
        cfg = ToyLoadConfig.residential(seed=7)
        a = simulate_ground_truth(cfg, 60.0, start_time_s=120.0)
        b = simulate_ground_truth(cfg, 60.0, start_time_s=120.0)
        np.testing.assert_array_equal(a, b)

    def test_different_windows_differ(self):
        cfg = ToyLoadConfig.residential(seed=7)
        a = simulate_ground_truth(cfg, 30.0, start_time_s=0.0)
        b = simulate_ground_truth(cfg, 30.0, start_time_s=30.0)
        assert not np.array_equal(a, b)

    def test_strictly_positive_even_at_max_noise(self):
        cfg = flat_config(noise=0.2, ar=0.95, seed=3)
        out = simulate_ground_truth(cfg, 600.0)
        assert np.all(out > 0)

    def test_rejects_short_duration(self):
        with pytest.raises(ValueError):
            simulate_ground_truth(flat_config(), 10.0)

    def test_noise_scale_matches_config(self):
        cfg = flat_config(noise=0.05, ar=0.6, seed=11)
        out = simulate_ground_truth(cfg, 1200.0)
        rel = out / 42.0 - 1.0
        assert abs(np.std(rel) - 0.05) < 0.01


class TestBlockMeans:
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("m", [1, 3, 7, 12])
    def test_moment_formulas_against_direct_sums(self, rho, m):
        # oracle: build the coefficient vectors explicitly and sum them
        sigma_e = 0.7
        c = np.array([(1 - rho ** (m - i + 1)) / (1 - rho) for i in range(1, m + 1)])
        e_coef = np.array([rho ** (m - i) for i in range(1, m + 1)])
        want_A = sum(rho**j for j in range(1, m + 1))
        want_var_eta = sigma_e**2 * np.sum(e_coef**2)
        want_var_zeta = sigma_e**2 * np.sum(c**2)
        want_cov = sigma_e**2 * np.sum(c * e_coef)
        A, rho_m, var_eta, var_zeta, cov = _ar1_block_moments(rho, sigma_e, m)
        assert A == pytest.approx(want_A, rel=1e-12)
        assert rho_m == pytest.approx(rho**m, rel=1e-12)
        assert var_eta == pytest.approx(want_var_eta, rel=1e-12)
        assert var_zeta == pytest.approx(want_var_zeta, rel=1e-12)
        assert cov == pytest.approx(want_cov, rel=1e-12)

    @pytest.mark.parametrize("block_s", [0.0, 0.01, -30.0, 45.01, math.inf, math.nan])
    def test_rejects_block_off_grid(self, block_s):
        with pytest.raises(ValueError, match="multiple of 1/30 s"):
            simulate_block_means(flat_config(), block_s, 10)

    def test_deterministic(self):
        cfg = ToyLoadConfig.residential(seed=5)
        a = simulate_block_means(cfg, 30.0, 1000)
        b = simulate_block_means(cfg, 30.0, 1000)
        np.testing.assert_array_equal(a, b)

    def test_noise_free_blocks_match_quadrature(self):
        # exact cosine-sum integration vs numerical averaging at 30 Hz
        cfg = flat_config()
        cfg = ToyLoadConfig(
            load_class=cfg.load_class, base_mw=cfg.base_mw,
            seasonal_amp=0.15, seasonal_tilt=0.05, daily_amp=0.3,
            daily_ripple=0.03, ar_coeff=0.0, noise_rel_std=0.0, seed=0,
        )
        blocks = simulate_block_means(cfg, 30.0, 120)
        full = simulate_ground_truth(cfg, 3600.0)
        sampled = downsample(full, 900, Metric.MEAN)
        np.testing.assert_allclose(blocks, sampled, rtol=1e-9)

    def test_block_mean_std_matches_theory(self):
        rho, rel_std, m = 0.6, 0.05, 900
        cfg = flat_config(noise=rel_std, ar=rho, base=1.0, seed=21)
        blocks = simulate_block_means(cfg, 30.0, 20_000)
        sigma_e = rel_std * math.sqrt(1 - rho**2)
        A, _, _, var_zeta, _ = _ar1_block_moments(rho, sigma_e, m)
        theory = math.sqrt((A**2 * rel_std**2 + var_zeta) / m**2)
        assert np.std(blocks - 1.0) == pytest.approx(theory, rel=0.05)

    def test_full_rate_path_agrees_statistically(self):
        rho, rel_std, m = 0.6, 0.05, 900
        cfg = flat_config(noise=rel_std, ar=rho, base=1.0, seed=22)
        full = simulate_ground_truth(cfg, 3000.0)
        block_of_full = downsample(full, m, Metric.MEAN)
        sigma_e = rel_std * math.sqrt(1 - rho**2)
        A, _, _, var_zeta, _ = _ar1_block_moments(rho, sigma_e, m)
        theory = math.sqrt((A**2 * rel_std**2 + var_zeta) / m**2)
        assert np.std(block_of_full - 1.0) == pytest.approx(theory, rel=0.35)

    def test_weekly_means_track_yearly_curve(self):
        cfg = ToyLoadConfig.residential(seed=13, base_mw=10.0)
        weekly = simulate_block_means(cfg, WEEK_S, 52) / 10.0
        centers = WEEK_S * (np.arange(52) + 0.5)
        np.testing.assert_allclose(weekly, cfg.yearly(centers), rtol=0.02)

    def test_residential_weekly_curve_shape(self):
        cfg = ToyLoadConfig.residential(seed=17)
        weekly = simulate_block_means(cfg, WEEK_S, 52) / cfg.base_mw
        assert weekly.max() / weekly.min() > 1.3
        assert season_of_week(int(np.argmax(weekly))) is Season.WINTER
        summer = [w for w in range(52) if season_of_week(w) is Season.SUMMER]
        spring = [w for w in range(52) if season_of_week(w) is Season.SPRING]
        assert max(weekly[summer]) > max(weekly[spring])


class TestSeedSplitting:
    def test_split_is_deterministic(self):
        assert sub_seed(55, 3) == sub_seed(55, 3)

    def test_split_separates_loads(self):
        assert sub_seed(55, 0) != sub_seed(55, 1)

    def test_desk_configs(self):
        configs = default_desk_configs(n_residential=6, n_industrial=6, seed=2024)
        assert len(configs) == 12
        classes = [c.load_class for c in configs]
        assert classes.count(LoadClass.MAINLY_RESIDENTIAL) == 6
        assert classes.count(LoadClass.MAINLY_INDUSTRIAL) == 6
        assert len({c.seed for c in configs}) == 12
        # regenerating gives the identical fleet
        assert default_desk_configs(n_residential=6, n_industrial=6, seed=2024) == configs
