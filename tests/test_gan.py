"""Adversarial training contracts: determinism, schedule, conditioning."""

import itertools

import numpy as np
import pytest

from loadsynth.core import Level, LoadClass, LoadProfile, Normalization, Season
from loadsynth.errors import (
    DatasetTooSmall,
    LabelRequired,
    MissingLabelCoverage,
)
from loadsynth.neural.gan import (
    LABEL_VOCAB,
    HyperParams,
    encode_labels,
    gan_generate,
    train_cgan,
    train_gan,
)


def l2_profile(samples):
    samples = np.asarray(samples, float)
    return LoadProfile(
        samples=samples - samples.mean(),
        sampling_period_s=30.0,
        normalization=Normalization.ZERO_MEAN_DETRENDED,
    )


def l1_profile(samples):
    samples = np.asarray(samples, float)
    return LoadProfile(
        samples=samples / samples.mean(),
        sampling_period_s=1 / 30,
        normalization=Normalization.MEAN_ONE,
    )


def l3_profile(samples, load_class, season):
    samples = np.asarray(samples, float)
    return LoadProfile(
        samples=samples / samples.mean(),
        sampling_period_s=3600.0,
        load_class=load_class,
        season=season,
        normalization=Normalization.MEAN_ONE,
    )


@pytest.fixture(scope="module")
def small_l2_dataset():
    rng = np.random.default_rng(5)
    return [l2_profile(0.01 * rng.standard_normal(120)) for _ in range(64)]


class TestTrainGan:
    def test_deterministic_weights(self, small_l2_dataset):
        hyper = HyperParams(epochs=2, batch_size=8, trace_samples=50)
        a = train_gan(small_l2_dataset, Level.L2, hyper, seed=42)
        b = train_gan(small_l2_dataset, Level.L2, hyper, seed=42)
        np.testing.assert_array_equal(a.generator.params, b.generator.params)
        np.testing.assert_array_equal(
            a.discriminator.params, b.discriminator.params
        )
        assert a.log.to_jsonable() == b.log.to_jsonable()

    def test_different_seed_differs(self, small_l2_dataset):
        hyper = HyperParams(epochs=1, batch_size=8, trace_samples=50)
        a = train_gan(small_l2_dataset, Level.L2, hyper, seed=1)
        b = train_gan(small_l2_dataset, Level.L2, hyper, seed=2)
        assert not np.array_equal(a.generator.params, b.generator.params)

    def test_two_disc_updates_per_gen_update(self, small_l2_dataset):
        hyper = HyperParams(epochs=3, batch_size=8, trace_samples=50)
        model = train_gan(small_l2_dataset, Level.L2, hyper, seed=3)
        assert model.log.disc_updates == 2 * model.log.gen_updates
        assert model.log.gen_updates == 3 * (64 // 8 // 2)

    def test_dataset_too_small(self):
        dataset = [l2_profile(np.random.default_rng(0).standard_normal(120))] * 10
        with pytest.raises(DatasetTooSmall):
            train_gan(dataset, Level.L2, HyperParams(epochs=1, batch_size=8), seed=0)

    def test_wrong_normalization_rejected(self):
        prof = l1_profile(np.ones(120))
        with pytest.raises(ValueError, match="zero_mean"):
            train_gan([prof] * 64, Level.L2, HyperParams(epochs=1, batch_size=8), seed=0)

    def test_wrong_length_rejected(self):
        prof = l2_profile(np.random.default_rng(0).standard_normal(100))
        with pytest.raises(ValueError, match="length"):
            train_gan([prof] * 64, Level.L2, HyperParams(epochs=1, batch_size=8), seed=0)

    def test_constant_dataset_stays_near_target(self):
        # identical mean-one profiles: generated output should hug 1.0
        dataset = [l1_profile(np.ones(900)) for _ in range(32)]
        hyper = HyperParams(epochs=4, batch_size=8, trace_samples=32)
        model = train_gan(dataset, Level.L1, hyper, seed=7)
        out = gan_generate(model, 500, seed=1)
        deviation = np.abs(out - 1.0).mean()
        assert deviation < 0.05

    def test_training_log_has_both_trace_estimates(self, small_l2_dataset):
        hyper = HyperParams(epochs=2, batch_size=8, trace_samples=50)
        model = train_gan(small_l2_dataset, Level.L2, hyper, seed=4)
        assert len(model.log.epochs) == 2
        for entry in model.log.epochs:
            assert set(entry) == {"disc_loss", "gen_loss", "w_hist", "w_exact"}
            assert np.isfinite(list(entry.values())).all()


class TestLabels:
    def test_one_hot_encoding(self):
        vec = encode_labels([(LoadClass.MAINLY_INDUSTRIAL, Season.SUMMER)])[0]
        assert vec.shape == (6,)
        assert vec.sum() == 2.0
        assert vec[1] == 1.0  # industrial bit
        assert vec[2 + 2] == 1.0  # summer bit

    def test_vocab_has_eight_combos(self):
        assert len(LABEL_VOCAB) == 8
        assert len(set(LABEL_VOCAB)) == 8


def two_cluster_dataset(per_combo=8):
    """Class-dependent shapes: residential rises, industrial falls."""
    up = np.concatenate([np.full(84, 0.5), np.full(84, 1.5)])
    down = up[::-1].copy()
    dataset, labels = [], []
    for cls, season in itertools.product(LoadClass, Season):
        shape = down if cls is LoadClass.MAINLY_RESIDENTIAL else up
        for k in range(per_combo):
            dataset.append(l3_profile(shape, cls, season))
            labels.append((cls, season))
    return dataset, labels


class TestTrainCGan:
    def test_missing_label_coverage(self):
        dataset, labels = two_cluster_dataset(per_combo=8)
        # drop every (industrial, fall) example
        keep = [
            i
            for i, lab in enumerate(labels)
            if lab != (LoadClass.MAINLY_INDUSTRIAL, Season.FALL)
        ]
        with pytest.raises(MissingLabelCoverage, match="industrial"):
            train_cgan(
                [dataset[i] for i in keep],
                [labels[i] for i in keep],
                HyperParams(epochs=1, batch_size=8),
                seed=0,
            )

    def test_labels_from_profiles_when_omitted(self):
        dataset, _ = two_cluster_dataset(per_combo=8)
        model = train_cgan(
            dataset, None, HyperParams(epochs=1, batch_size=8, trace_samples=16), seed=0
        )
        assert model.conditional

    def test_conditioning_separates_classes(self):
        dataset, labels = two_cluster_dataset(per_combo=8)
        hyper = HyperParams(epochs=150, batch_size=8, trace_samples=32)
        model = train_cgan(dataset, labels, hyper, seed=5)
        res = gan_generate(
            model, 64, seed=1, labels=(LoadClass.MAINLY_RESIDENTIAL, Season.WINTER)
        )
        ind = gan_generate(
            model, 64, seed=2, labels=(LoadClass.MAINLY_INDUSTRIAL, Season.WINTER)
        )
        res_first_half = res[:, :84].mean()
        ind_first_half = ind[:, :84].mean()
        # residential profiles fall (high first half), industrial rise
        assert res_first_half - ind_first_half > 0.5

    def test_seed_reproducibility(self):
        dataset, labels = two_cluster_dataset(per_combo=8)
        hyper = HyperParams(epochs=1, batch_size=8, trace_samples=16)
        a = train_cgan(dataset, labels, hyper, seed=9)
        b = train_cgan(dataset, labels, hyper, seed=9)
        np.testing.assert_array_equal(a.generator.params, b.generator.params)


@pytest.fixture(scope="module")
def generate_model(small_l2_dataset):
    hyper = HyperParams(epochs=1, batch_size=8, trace_samples=50)
    return train_gan(small_l2_dataset, Level.L2, hyper, seed=11)


class TestGenerate:
    @pytest.fixture()
    def model(self, generate_model):
        return generate_model

    def test_count_zero(self, model):
        out = gan_generate(model, 0, seed=0)
        assert out.shape == (0, 120)

    def test_zero_mean_contract(self, model):
        out = gan_generate(model, 5, seed=1)
        assert out.shape == (5, 120) and out.dtype == np.float64
        assert np.all(np.abs(out.mean(axis=1)) < 1e-12)

    def test_fixed_seed_reproducible(self, model):
        a = gan_generate(model, 7, seed=3)
        b = gan_generate(model, 7, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_chunking_invariance(self, model):
        # profile i draws its noise from (seed, i) alone; outputs agree to
        # BLAS reassociation error when the batch split changes
        a = gan_generate(model, 3, seed=4)
        b = gan_generate(model, 9, seed=4)
        np.testing.assert_allclose(a, b[:3], atol=1e-12)

    def test_unconditional_rejects_labels(self, model):
        with pytest.raises(ValueError, match="no labels"):
            gan_generate(model, 1, seed=0, labels=(LoadClass.MAINLY_RESIDENTIAL, Season.WINTER))

    def test_conditional_requires_labels(self):
        dataset, labels = two_cluster_dataset(per_combo=8)
        model = train_cgan(
            dataset, labels, HyperParams(epochs=1, batch_size=8, trace_samples=16), seed=0
        )
        with pytest.raises(LabelRequired):
            gan_generate(model, 2, seed=0)
        out = gan_generate(model, 3, seed=0, labels=(LoadClass.MAINLY_INDUSTRIAL, Season.SUMMER))
        assert out.shape == (3, 168)
        assert np.all(out >= 0)
        assert np.all(np.abs(out.mean(axis=1) - 1.0) < 1e-9)
