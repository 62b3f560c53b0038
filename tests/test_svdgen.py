"""Pattern model: decomposition fidelity, sampling contracts, class isolation."""

import copy
import warnings

import numpy as np
import pytest

from loadsynth.core import LoadClass, Metric, Season, downsample, season_of_week, sub_seed
from loadsynth.errors import InsufficientData, RankDeficientWarning
from loadsynth.svdgen import SvdModel, fit_svd_model, svd_generate
from loadsynth.toydata import ToyLoadConfig, simulate_block_means

WEEK_S = 604_800.0


def jacobi_singular_values(A, tol=1e-14, max_sweeps=60):
    """One-sided Jacobi: orthogonalize column pairs by plane rotations.

    Independent of any LAPACK driver; returns singular values descending.
    """
    B = np.array(A.T if A.shape[0] < A.shape[1] else A, dtype=np.float64)
    n_cols = B.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n_cols - 1):
            for j in range(i + 1, n_cols):
                a = B[:, i] @ B[:, i]
                b = B[:, i] @ B[:, j]
                c = B[:, j] @ B[:, j]
                off = max(off, abs(b) / max(np.sqrt(a * c), 1e-300))
                if abs(b) <= tol * np.sqrt(a * c):
                    continue
                zeta = (c - a) / (2.0 * b)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                bi = B[:, i].copy()
                B[:, i] = cs * bi - sn * B[:, j]
                B[:, j] = sn * bi + cs * B[:, j]
        if off <= tol:
            break
    return np.sort(np.linalg.norm(B, axis=0))[::-1]


def toy_year_matrix(load_class, n_profiles, seed0=50):
    factory = (
        ToyLoadConfig.residential
        if load_class is LoadClass.MAINLY_RESIDENTIAL
        else ToyLoadConfig.industrial
    )
    rows = []
    for i in range(n_profiles):
        cfg = factory(seed=sub_seed(seed0, i))
        weekly = simulate_block_means(cfg, WEEK_S, 52)
        rows.append(weekly / weekly.mean())
    return np.asarray(rows)


class TestJacobiOracle:
    @pytest.mark.parametrize("shape", [(5, 8), (8, 5), (12, 52)])
    def test_oracle_matches_defining_property(self, shape):
        # validate the oracle itself on random matrices: its values must
        # square-sum to ||A||_F^2 and match abs eigenvalues of A A^T
        rng = np.random.default_rng(sum(shape))
        A = rng.normal(size=shape)
        sv = jacobi_singular_values(A)
        assert np.sum(sv**2) == pytest.approx(np.sum(A**2), rel=1e-12)
        eig = np.sort(np.abs(np.linalg.eigvalsh(A @ A.T)))[::-1]
        np.testing.assert_allclose(sv[: min(shape)] ** 2, eig[: min(shape)], rtol=1e-9, atol=1e-9)


class TestFit:
    def test_decomposition_property_small(self):
        rng = np.random.default_rng(0)
        L = np.abs(rng.uniform(0.5, 1.5, (2, 52)))
        L = L / L.mean(axis=1, keepdims=True)
        model = fit_svd_model(L, LoadClass.MAINLY_RESIDENTIAL)
        recon = model.u @ (model.s[:, None] * model.vt)
        np.testing.assert_allclose(recon, L, atol=1e-12)
        gram = model.vt @ model.vt.T
        np.testing.assert_allclose(gram, np.eye(model.rank), atol=1e-10)

    def test_identical_rows_warn_rank_deficient(self):
        row = np.abs(np.random.default_rng(1).uniform(0.5, 1.5, 52))
        row = row / row.mean()
        with pytest.warns(RankDeficientWarning):
            model = fit_svd_model(np.vstack([row, row]), LoadClass.MAINLY_INDUSTRIAL)
        assert model.s[1] == pytest.approx(0.0, abs=1e-12 * model.s[0])

    def test_toydata_reconstruction_and_oracle_values(self):
        L = toy_year_matrix(LoadClass.MAINLY_RESIDENTIAL, 12)
        model = fit_svd_model(L, LoadClass.MAINLY_RESIDENTIAL)
        recon = model.u @ model.patterns
        rel = np.linalg.norm(recon - L) / np.linalg.norm(L)
        assert rel < 1e-9
        oracle = jacobi_singular_values(L)
        np.testing.assert_allclose(model.s, oracle[: model.rank], rtol=0, atol=1e-9 * oracle[0])

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError):
            fit_svd_model(np.full((3, 52), 2.0), LoadClass.MAINLY_RESIDENTIAL)

    def test_rejects_single_row(self):
        with pytest.raises(InsufficientData, match="at least two"):
            fit_svd_model(np.ones((1, 52)), LoadClass.MAINLY_RESIDENTIAL)

    def test_training_coefficients_reproduce_training(self, model):
        m, L = model
        np.testing.assert_allclose(m.u[3] @ m.patterns, L[3], atol=1e-9)


@pytest.fixture(scope="module")
def model():
    L = toy_year_matrix(LoadClass.MAINLY_RESIDENTIAL, 12)
    return fit_svd_model(L, LoadClass.MAINLY_RESIDENTIAL), L


class TestGenerate:
    def test_count_zero(self, model):
        assert svd_generate(model[0], 0, seed=1).shape == (0, 52)

    def test_mean_exactly_one_and_deterministic(self, model):
        m, _ = model
        a = svd_generate(m, 20, seed=77)
        b = svd_generate(m, 20, seed=77)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (20, 52)
        assert np.all(a > 0)
        assert np.all(np.abs(a.mean(axis=1) - 1.0) < 1e-9)

    def test_profiles_live_in_pattern_row_space(self, model):
        m, _ = model
        for prof in svd_generate(m, 50, seed=5):
            if prof.min() <= 0.011:
                continue  # the nonnegativity floor engaged; projection voided
            proj = (prof @ m.vt.T) @ m.vt
            assert np.linalg.norm(prof - proj) < 1e-9

    def test_seasonal_peaks_match_training(self, model):
        m, L = model
        gen = svd_generate(m, 500, seed=9)
        mean_curve = gen.mean(axis=0)
        train_curve = L.mean(axis=0)
        # winter peak within +-3 weeks (mod 52), summer peak within +-3
        def winter_peak(curve):
            shifted = np.roll(curve, 26)
            return (int(np.argmax(shifted)) - 26) % 52
        assert min(abs(winter_peak(mean_curve) - winter_peak(train_curve)),
                   52 - abs(winter_peak(mean_curve) - winter_peak(train_curve))) <= 3
        summer_w = [w for w in range(52) if season_of_week(w) is Season.SUMMER]
        gen_peak = summer_w[int(np.argmax(mean_curve[summer_w]))]
        train_peak = summer_w[int(np.argmax(train_curve[summer_w]))]
        assert abs(gen_peak - train_peak) <= 3

    def test_models_share_no_state(self):
        res = fit_svd_model(toy_year_matrix(LoadClass.MAINLY_RESIDENTIAL, 4), LoadClass.MAINLY_RESIDENTIAL)
        snapshot = copy.deepcopy(res)
        fit_svd_model(toy_year_matrix(LoadClass.MAINLY_INDUSTRIAL, 4, seed0=61), LoadClass.MAINLY_INDUSTRIAL)
        svd_generate(res, 3, seed=0)
        for a, b in zip(
            (res.u, res.s, res.vt, res.coeff_mu, res.coeff_sigma),
            (snapshot.u, snapshot.s, snapshot.vt, snapshot.coeff_mu, snapshot.coeff_sigma),
        ):
            np.testing.assert_array_equal(a, b)
