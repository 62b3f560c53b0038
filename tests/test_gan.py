"""Adversarial training contracts: determinism, schedule, conditioning."""

import itertools

import numpy as np
import pytest

from loadsynth.core import LEVEL_SPECS, Level, LoadClass, ProfileRowError, ProfileSet, Season
from loadsynth.errors import DivergenceDetected, InsufficientData
from loadsynth.neural import gan
from loadsynth.neural.gan import (
    CONDITIONED_LEVEL,
    LABEL_DIM,
    LABEL_VOCAB,
    CGanModel,
    GanModel,
    HyperParams,
    check_trainable,
    discriminator_spec,
    encode_labels,
    gan_generate,
    train_gan,
)
from loadsynth.neural.network import Network
from loadsynth.neural.optim import Adam


def l2_set(rows):
    rows = np.asarray(rows, float)
    return ProfileSet(Level.L2, rows - rows.mean(axis=1, keepdims=True))


def l1_set(rows):
    rows = np.asarray(rows, float)
    return ProfileSet(Level.L1, rows / rows.mean(axis=1, keepdims=True))


@pytest.fixture(scope="module")
def small_l2_dataset():
    rng = np.random.default_rng(5)
    return l2_set([0.01 * rng.standard_normal(120) for _ in range(64)])


class TestTrainGan:
    def test_deterministic_weights(self, small_l2_dataset):
        hyper = HyperParams(epochs=2, batch_size=8, noise_dim=100, trace_samples=50)
        a = train_gan(small_l2_dataset, hyper, seed=42)
        b = train_gan(small_l2_dataset, hyper, seed=42)
        np.testing.assert_array_equal(a.generator.params, b.generator.params)
        assert a.log.to_jsonable() == b.log.to_jsonable()

    def test_different_seed_differs(self, small_l2_dataset):
        hyper = HyperParams(epochs=1, batch_size=8, noise_dim=100, trace_samples=50)
        a = train_gan(small_l2_dataset, hyper, seed=1)
        b = train_gan(small_l2_dataset, hyper, seed=2)
        assert not np.array_equal(a.generator.params, b.generator.params)

    def test_two_disc_updates_per_gen_update(self, small_l2_dataset):
        hyper = HyperParams(epochs=3, batch_size=8, noise_dim=100, trace_samples=50)
        model = train_gan(small_l2_dataset, hyper, seed=3)
        assert model.log.disc_updates == 2 * model.log.gen_updates
        assert model.log.gen_updates == 3 * (64 // 8 // 2)

    def test_non_finite_training_retries_once_at_half_the_rate(self, small_l2_dataset, monkeypatch):
        logs = []

        class RecordedLog(gan.TrainingLog):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                logs.append(self)

        def nan_step(self, params, grads):
            for p in params:
                p.fill(np.nan)

        monkeypatch.setattr(gan, "TrainingLog", RecordedLog)
        monkeypatch.setattr(Adam, "step", nan_step)
        hyper = HyperParams(epochs=3, batch_size=8, noise_dim=100, trace_samples=50)
        with pytest.raises(DivergenceDetected, match=r"^level l2 training went non-finite twice \(last lr 0.0001\)$"):
            train_gan(small_l2_dataset, hyper, seed=4)
        (log,) = logs
        assert log.attempts == [
            {"seed_path": [4, 0], "learning_rate": 2e-4, "diverged": True},
            {"seed_path": [4, 1], "learning_rate": 1e-4, "diverged": True},
        ]
        assert len(log.epochs) == 1  # the second attempt stopped after its first epoch

    def test_dataset_too_small(self):
        dataset = l2_set([np.random.default_rng(0).standard_normal(120)] * 10)
        with pytest.raises(InsufficientData, match="^cannot train level 2: 10 profiles < 2 batches of 8$"):
            train_gan(dataset, HyperParams(epochs=1, batch_size=8, noise_dim=100), seed=0)

    def test_wrong_normalization_rejected(self):
        # mean-one rows cannot form the level-2 set that train_gan takes
        with pytest.raises(ProfileRowError, match="^row 0: detrended profile has mean 1.0$"):
            ProfileSet(Level.L2, np.ones((64, 120)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ProfileRowError, match="length 100 does not fit level l2"):
            l2_set(np.random.default_rng(0).standard_normal((64, 100)))

    def test_constant_dataset_stays_near_target(self):
        # identical mean-one profiles: generated output should hug 1.0
        dataset = l1_set(np.ones((32, 900)))
        hyper = HyperParams(epochs=4, batch_size=8, noise_dim=100, trace_samples=32)
        model = train_gan(dataset, hyper, seed=7)
        out = gan_generate(model, 500, seed=1)
        deviation = np.abs(out - 1.0).mean()
        assert deviation < 0.05

    def test_training_log_has_both_trace_estimates(self, small_l2_dataset):
        hyper = HyperParams(epochs=2, batch_size=8, noise_dim=100, trace_samples=50)
        model = train_gan(small_l2_dataset, hyper, seed=4)
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


def two_cluster_dataset(per_combo=8, leave_out=None):
    """Class-dependent shapes: residential rises, industrial falls; the
    label ``leave_out`` has no examples."""
    up = np.concatenate([np.full(84, 0.5), np.full(84, 1.5)])
    down = up[::-1].copy()
    labels = [
        (cls, season)
        for cls, season in itertools.product(LoadClass, Season)
        for _ in range(per_combo)
        if (cls, season) != leave_out
    ]
    rows = [down if cls is LoadClass.MAINLY_RESIDENTIAL else up for cls, _ in labels]
    return ProfileSet(Level.L3, rows, *zip(*labels))


class TestTrainCGan:
    def test_missing_label_coverage(self):
        dataset = two_cluster_dataset(per_combo=8, leave_out=(LoadClass.MAINLY_INDUSTRIAL, Season.FALL))
        with pytest.raises(InsufficientData, match=r"^cannot train level 3: .*\(industrial, fall\): 0 examples$"):
            train_gan(dataset, HyperParams(epochs=1, batch_size=8, noise_dim=100), seed=0)

    def test_labels_from_profiles_when_omitted(self):
        dataset = two_cluster_dataset(per_combo=8)
        model = train_gan(dataset, HyperParams(epochs=1, batch_size=8, noise_dim=100, trace_samples=16), seed=0)
        assert model.conditional

    def test_conditioning_separates_classes(self):
        dataset = two_cluster_dataset(per_combo=8)
        hyper = HyperParams(epochs=150, batch_size=8, noise_dim=100, trace_samples=32)
        model = train_gan(dataset, hyper, seed=5)
        res = gan_generate(model, 64, seed=1, labels=[(LoadClass.MAINLY_RESIDENTIAL, Season.WINTER)] * 64)
        ind = gan_generate(model, 64, seed=2, labels=[(LoadClass.MAINLY_INDUSTRIAL, Season.WINTER)] * 64)
        res_first_half = res[:, :84].mean()
        ind_first_half = ind[:, :84].mean()
        # residential profiles fall (high first half), industrial rise
        assert res_first_half - ind_first_half > 0.5

    def test_seed_reproducibility(self):
        dataset = two_cluster_dataset(per_combo=8)
        hyper = HyperParams(epochs=1, batch_size=8, noise_dim=100, trace_samples=16)
        a = train_gan(dataset, hyper, seed=9)
        b = train_gan(dataset, hyper, seed=9)
        np.testing.assert_array_equal(a.generator.params, b.generator.params)


@pytest.fixture()
def built_networks(monkeypatch):
    """Every Network that train_gan builds, generator then discriminator."""
    built = []

    class Recorded(Network):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(gan, "Network", Recorded)
    return built


class TestOneTrainer:
    @pytest.mark.parametrize("level", [Level.L1, Level.L2, Level.L3])
    def test_conditions_at_level_3_only(self, level, built_networks):
        if level is Level.L3:
            dataset = two_cluster_dataset(per_combo=8)
        else:
            rng = np.random.default_rng(8)
            rows = 1.0 + 0.01 * rng.standard_normal((16, LEVEL_SPECS[level].profile_length))
            dataset = l1_set(rows) if level is Level.L1 else l2_set(rows)
        hyper = HyperParams(epochs=1, batch_size=8, noise_dim=5, trace_samples=16)
        model = train_gan(dataset, hyper, seed=0)
        conditioned = level is Level.L3
        assert CONDITIONED_LEVEL is Level.L3
        assert type(model) is (CGanModel if conditioned else GanModel)
        assert model.conditional is conditioned and model.level is level
        # the labels widen the generator's input and the discriminator's channels
        assert model.generator.spec.layers[0][:2] == ("dense", 5 + 6 * conditioned)
        generator, discriminator = built_networks
        assert generator is model.generator
        assert discriminator.spec == discriminator_spec(level, LABEL_DIM * conditioned)
        assert discriminator.spec.layers[0][:2] == ("conv1d", 1 + LABEL_DIM * conditioned)

    def test_label_rules_come_before_the_batch_count(self):
        # 8 profiles fill no two batches of 8, but the missing combos are named first
        dataset = two_cluster_dataset(per_combo=1)
        with pytest.raises(InsufficientData, match="1 examples"):
            check_trainable(dataset, 8)
        with pytest.raises(InsufficientData, match="^cannot train level 2: 8 profiles < 2 batches of 8$"):
            check_trainable(l2_set(np.random.default_rng(0).standard_normal((8, 120))), 8)

    def test_unlabelled_level_3_row_is_refused(self):
        dataset = two_cluster_dataset(per_combo=8)
        seasons = (None,) + dataset.season[1:]
        unlabelled = ProfileSet(Level.L3, dataset.samples, dataset.load_class, seasons)
        with pytest.raises(InsufficientData, match="^cannot train level 3: every profile needs a"):
            train_gan(unlabelled, HyperParams(epochs=1, batch_size=8, noise_dim=100), seed=0)


@pytest.mark.parametrize("level,batch", [(Level.L1, 8), (Level.L2, 1), (Level.L3, 8)])
def test_skipped_gradients_change_no_trained_bit(level, batch, monkeypatch):
    # the trainer asks each backward pass only for the gradients it reads;
    # computing every gradient every time gives the same model and log
    if level is Level.L3:
        dataset = two_cluster_dataset(per_combo=8)
    else:
        rows = 1.0 + 0.01 * np.random.default_rng(9).standard_normal((16, LEVEL_SPECS[level].profile_length))
        dataset = l1_set(rows) if level is Level.L1 else l2_set(rows)
    hyper = HyperParams(epochs=2, batch_size=batch, noise_dim=5, trace_samples=16)
    skipping = train_gan(dataset, hyper, seed=4)

    backward = Network.backward
    asked = []

    def every_gradient(self, tape, gy, *, param_grads=True, input_grad=True):
        asked.append((self.spec.layers[0][0], param_grads, input_grad))
        return backward(self, tape, gy, param_grads=True, input_grad=True)

    monkeypatch.setattr(Network, "backward", every_gradient)
    full = train_gan(dataset, hyper, seed=4)
    assert skipping.generator.params.tobytes() == full.generator.params.tobytes()
    assert skipping.log.to_jsonable() == full.log.to_jsonable()
    # discriminator: parameters only, then the input only; generator: parameters only
    assert set(asked) == {("conv1d", True, False), ("conv1d", False, True), ("dense", True, False)}


@pytest.fixture(scope="module")
def generate_model(small_l2_dataset):
    hyper = HyperParams(epochs=1, batch_size=8, noise_dim=100, trace_samples=50)
    return train_gan(small_l2_dataset, hyper, seed=11)


def held_arrays(networks):
    """Names of the ndarray attributes the layers of ``networks`` hold."""
    return {
        name
        for net in networks
        for layer in net.layers
        for name, value in vars(layer).items()
        if isinstance(value, np.ndarray)
    }


def test_layers_keep_no_activations(small_l2_dataset, built_networks):
    # both networks after the forward and backward passes of training
    model = train_gan(small_l2_dataset, HyperParams(epochs=1, batch_size=8, noise_dim=100), seed=12)
    generator, discriminator = built_networks
    assert generator is model.generator
    assert discriminator.spec == discriminator_spec(Level.L2)
    assert held_arrays(built_networks) == {"w", "b", "gw", "gb"}
    gan_generate(model, 5, seed=0)
    assert held_arrays([model.generator]) == {"w", "b", "gw", "gb"}


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
            gan_generate(model, 1, seed=0, labels=[(LoadClass.MAINLY_RESIDENTIAL, Season.WINTER)])

    def test_conditional_requires_labels(self):
        dataset = two_cluster_dataset(per_combo=8)
        model = train_gan(dataset, HyperParams(epochs=1, batch_size=8, noise_dim=100, trace_samples=16), seed=0)
        with pytest.raises(ValueError, match="needs \\(load class, season\\) labels"):
            gan_generate(model, 2, seed=0)
        out = gan_generate(model, 3, seed=0, labels=[(LoadClass.MAINLY_INDUSTRIAL, Season.SUMMER)] * 3)
        assert out.shape == (3, 168)
        assert np.all(out >= 0)
        assert np.all(np.abs(out.mean(axis=1) - 1.0) < 1e-9)


# ----------------------------------------------------------------------
# row ranges: 512-row slices, and level 1's 64-row pieces
# ----------------------------------------------------------------------


def slice_forward(generator, z):
    """The generator over 512-row slices counted from row 0, as every level
    forwarded a request before level 1 was cut into pieces."""
    return np.concatenate([generator.forward(z[lo : lo + 512]) for lo in range(0, len(z), 512)])


class ForwardSizes:
    """A generator stand-in that records the row count of each forward."""

    def __init__(self, level):
        self.length = LEVEL_SPECS[level].profile_length
        self.sizes = []

    def forward(self, z):
        self.sizes.append(len(z))
        return np.zeros((len(z), self.length))


@pytest.mark.parametrize("matmul", [True, False], ids=["matmul", "einsum"])
def test_level_1_pieces_give_the_bits_of_512_row_slices(matmul, monkeypatch):
    # the generator at its real shape: noise dim 100, random-init weights;
    # 65 and 577 end in a one-row piece that joins the piece before it,
    # 513 in a one-row slice
    from loadsynth.neural import layers
    from loadsynth.neural.network import init_params

    monkeypatch.setattr(layers, "_EINSUM_IS_MATMUL", matmul)
    spec = gan.generator_spec(Level.L1, 100)
    net = Network(spec, init_params(spec, np.random.default_rng(20)))
    z = np.random.default_rng(21).standard_normal((577, 100))
    for count in (1, 2, 65, 240, 513, 577):
        got = gan._forward_rows(net, Level.L1, 0, count, lambda lo, hi: z[lo:hi])
        assert got.tobytes() == slice_forward(net, z[:count]).tobytes(), count


@pytest.mark.parametrize(
    "count, sizes",
    [(1, [1]), (2, [2]), (65, [65]), (240, [64, 64, 64, 48]), (513, [64] * 8 + [1]), (577, [64] * 8 + [65])],
)
def test_level_1_forwards_64_row_pieces(count, sizes):
    generator = ForwardSizes(Level.L1)
    gan._forward_rows(generator, Level.L1, 0, count, lambda lo, hi: np.zeros((hi - lo, 1)))
    assert generator.sizes == sizes


@pytest.mark.parametrize("level", [Level.L2, Level.L3])
def test_levels_2_and_3_forward_512_row_slices(level):
    # their rows' bits depend on the slice size
    generator = ForwardSizes(level)
    gan._forward_rows(generator, level, 0, 1100, lambda lo, hi: np.zeros((hi - lo, 1)))
    assert generator.sizes == [512, 512, 76]
    generator.sizes.clear()
    gan._forward_rows(generator, level, 0, 513, lambda lo, hi: np.zeros((hi - lo, 1)))
    assert generator.sizes == [512, 1]


def test_a_range_of_whole_pieces_gives_the_rows_of_the_whole_request(generate_model):
    # level 2: its pieces are the 512-row slices
    whole = gan_generate(generate_model, 600, seed=4)
    for lo, hi in [(0, 512), (512, 600)]:
        part = gan_generate(generate_model, hi - lo, seed=4, start=lo)
        assert part.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


def test_training_trace_forwards_level_1_in_pieces(monkeypatch):
    # the per-epoch trace of 130 generated profiles: two 64-row pieces and
    # one of 2; the training steps forward batches of 8
    sizes = []
    forward = Network.forward

    def spy(self, x, tape=None):
        if self.spec.layers[-1] == ("flatten",):  # the generator
            sizes.append(len(x))
        return forward(self, x, tape)

    monkeypatch.setattr(Network, "forward", spy)
    rows = 1.0 + 0.01 * np.random.default_rng(3).standard_normal((130, 900))
    train_gan(l1_set(rows), HyperParams(epochs=1, batch_size=8, noise_dim=100, trace_samples=500), seed=2)
    assert sizes[-3:] == [64, 64, 2] and set(sizes[:-3]) == {8}
