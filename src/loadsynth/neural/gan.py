"""Adversarial training for the three fast/daily aggregation levels.

Levels 1 and 2 use unconditional generator/discriminator pairs; level 3 is
conditioned on (load class, season) encoded as a 6-bit one-hot pair (2
class bits + 4 season bits).  The conditioning vector is concatenated to
the generator's noise input and appended to the discriminator input as
constant-valued extra channels.

Training schedule: for every generator update the discriminator is updated
twice, each time on a fresh real batch against a fresh generated batch
(binary cross-entropy, real=1 / generated=0); the generator uses the
non-saturating loss.  Everything is a pure function of (dataset order,
hyperparameters, seed); if losses go non-finite the run restarts once with
the step halved on an explicitly different seed path, then gives up.

Generation returns one float64 (count, profile length) array of samples;
LoadProfile, with its labels and normalization, is the type of the
training datasets only.

Per epoch the log records mean losses plus the distribution distance
between pooled real and generated amplitudes over 500-sample subsets,
estimated both with the 100-bin histogram recipe and exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from ..core import (
    LEVEL_NORMALIZATION,
    LEVEL_SPECS,
    Level,
    LoadClass,
    LoadProfile,
    Normalization,
    Season,
)
from ..errors import (
    DatasetTooSmall,
    DegenerateProfile,
    DivergenceDetected,
    LabelRequired,
    MissingLabelCoverage,
)
from ..validate import wasserstein_1d, wasserstein_histogram
from .network import Network, NetworkSpec, init_params
from .optim import Adam

LABEL_DIM = 6
# all (class, season) combinations in enum order; fixed vocabulary
LABEL_VOCAB: tuple[tuple[LoadClass, Season], ...] = tuple(
    itertools.product(LoadClass, Season)
)

_P_CLAMP = 1e-12


def encode_labels(labels: Sequence[tuple[LoadClass, Season]]) -> np.ndarray:
    """One-hot (batch, 6): two class bits then four season bits."""
    classes = list(LoadClass)
    seasons = list(Season)
    out = np.zeros((len(labels), LABEL_DIM))
    for i, (cls, season) in enumerate(labels):
        out[i, classes.index(cls)] = 1.0
        out[i, 2 + seasons.index(season)] = 1.0
    return out


@dataclass(frozen=True)
class HyperParams:
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    noise_dim: int = 100
    trace_samples: int = 500


def generator_spec(level: Level, noise_dim: int, label_dim: int = 0) -> NetworkSpec:
    n_in = noise_dim + label_dim
    if level is Level.L1:
        feat, out_len, k = 225, 900, 4
        final = ("scaled_tanh", 1.0, 0.5)
    elif level is Level.L2:
        feat, out_len, k = 30, 120, 9
        final = ("scaled_tanh", 0.0, 0.5)
    elif level is Level.L3:
        feat, out_len, k = 42, 168, 4
        final = ("scaled_tanh", 1.0, 0.5)
    else:
        raise ValueError(f"no adversarial generator for level {level}")
    return NetworkSpec(
        layers=(
            ("dense", n_in, 128),
            ("relu",),
            ("dense", 128, 256),
            ("relu",),
            ("dense", 256, 32 * feat),
            ("relu",),
            ("reshape", 32, feat),
            ("convt1d", 32, 16, k, 2, 2 * feat),
            ("relu",),
            ("convt1d", 16, 1, k, 2, out_len),
            final,
            ("flatten",),
        )
    )


def discriminator_spec(level: Level, label_dim: int = 0) -> NetworkSpec:
    in_ch = 1 + label_dim
    if level is Level.L1:
        length, k, stride = 900, 25, 5
    elif level is Level.L2:
        length, k, stride = 120, 9, 2
    elif level is Level.L3:
        length, k, stride = 168, 25, 5
    else:
        raise ValueError(f"no discriminator for level {level}")
    conv_out = (length - k) // stride + 1
    return NetworkSpec(
        layers=(
            ("conv1d", in_ch, 16, k, stride),
            ("leaky_relu", 0.2),
            ("flatten",),
            ("dense", 16 * conv_out, 128),
            ("leaky_relu", 0.2),
            ("dense", 128, 1),
            ("sigmoid",),
        )
    )


@dataclass
class TrainingLog:
    epochs: list = field(default_factory=list)  # per-epoch dicts
    disc_updates: int = 0
    gen_updates: int = 0
    attempts: list = field(default_factory=list)  # per-attempt dicts

    def to_jsonable(self) -> dict:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, d: dict) -> "TrainingLog":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class GanModel:
    """Trained weights plus the amplitude scale that standardized the data.

    Training maps real excursions around the level's centre (1 for
    mean-one levels, 0 for the detrended level) onto the output
    activation's range; ``amplitude_scale`` undoes that map at generation
    time, so generated excursions match the training data's scale even
    when it is far narrower than the activation bound.
    """

    level: Level
    noise_dim: int
    generator: Network
    discriminator: Network
    log: TrainingLog
    amplitude_scale: float = 1.0

    @property
    def conditional(self) -> bool:
        return False

    @property
    def centre(self) -> float:
        return _centre(self.level)


@dataclass
class CGanModel(GanModel):
    label_vocab: tuple = LABEL_VOCAB

    @property
    def conditional(self) -> bool:
        return True


def _centre(level: Level) -> float:
    return 0.0 if LEVEL_NORMALIZATION[level] is Normalization.ZERO_MEAN_DETRENDED else 1.0


def _with_channels(profiles: np.ndarray, onehot: Optional[np.ndarray]) -> np.ndarray:
    """(batch, L) plus optional labels -> (batch, 1+label_dim, L)."""
    x = profiles[:, None, :]
    if onehot is None:
        return x
    channels = np.broadcast_to(onehot[:, :, None], (*onehot.shape, profiles.shape[1]))
    return np.concatenate([x, channels], axis=1)


def _bce_and_grad(p: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    p = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    loss = -np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
    grad = (p - targets) / (p * (1.0 - p)) / p.size
    return float(loss), grad


def _dataset_matrix(dataset: Sequence[LoadProfile], level: Level) -> np.ndarray:
    spec = LEVEL_SPECS[level]
    want_norm = LEVEL_NORMALIZATION[level]
    rows = []
    for prof in dataset:
        if len(prof) != spec.profile_length:
            raise ValueError(
                f"profile of length {len(prof)} does not fit level {level.value} "
                f"({spec.profile_length})"
            )
        if prof.normalization is not want_norm:
            raise ValueError(
                f"level {level.value} training data must be {want_norm.value}, "
                f"got {prof.normalization.value}"
            )
        rows.append(prof.samples)
    return np.asarray(rows)


_ACTIVATION_FILL = 0.95  # scaled excursions reach 95% of the tanh range


def check_batches(n: int, batch: int) -> None:
    """Raise DatasetTooSmall unless ``n`` profiles fill the two batches of a step."""
    if n < 2 * batch:
        raise DatasetTooSmall(f"{n} profiles < 2 batches of {batch}")


def check_label_coverage(labels: Sequence[tuple[LoadClass, Season]], batch: int) -> None:
    """Raise MissingLabelCoverage unless every label combo has a full batch.

    A label lacking its class or season is a ValueError.
    """
    for cls, season in labels:
        if cls is None or season is None:
            raise ValueError("every profile needs a (load class, season) label")
    counts = {combo: 0 for combo in LABEL_VOCAB}
    for lab in labels:
        counts[lab] += 1
    missing = [combo for combo, c in counts.items() if c < batch]
    if missing:
        raise MissingLabelCoverage(
            [f"({c.value}, {s.value}): {counts[(c, s)]} examples" for c, s in missing]
        )


def _train_adversarial(
    X_real: np.ndarray,
    onehot: Optional[np.ndarray],
    level: Level,
    hyper: HyperParams,
    seed: int,
) -> tuple[Network, Network, TrainingLog, float]:
    n, _ = X_real.shape
    batch = hyper.batch_size
    check_batches(n, batch)
    label_dim = LABEL_DIM if onehot is not None else 0
    log = TrainingLog()

    centre = _centre(level)
    spread = float(np.max(np.abs(X_real - centre)))
    scale = spread / (0.5 * _ACTIVATION_FILL) if spread > 0 else 1.0
    X = centre + (X_real - centre) / scale

    for attempt in range(2):
        lr = hyper.learning_rate / (2.0**attempt)
        rng = np.random.default_rng((seed, attempt))
        gen_spec = generator_spec(level, hyper.noise_dim, label_dim)
        gen = Network(gen_spec, init_params(gen_spec, rng))
        disc_spec = discriminator_spec(level, label_dim)
        disc = Network(disc_spec, init_params(disc_spec, rng))
        opt_g = Adam([gen.params], lr, hyper.beta1, hyper.beta2)
        opt_d = Adam([disc.params], lr, hyper.beta1, hyper.beta2)
        log.attempts.append({"seed_path": [seed, attempt], "learning_rate": lr})
        log.epochs, log.disc_updates, log.gen_updates = [], 0, 0
        diverged = False

        def disc_step(idx) -> float:
            real = X[idx]
            lab = onehot[idx] if onehot is not None else None
            z = rng.standard_normal((idx.size, hyper.noise_dim))
            g_in = np.hstack([z, lab]) if lab is not None else z
            fake = gen.forward(g_in)
            d_in = np.concatenate(
                [_with_channels(real, lab), _with_channels(fake, lab)], axis=0
            )
            targets = np.concatenate([np.ones((idx.size, 1)), np.zeros((idx.size, 1))])
            p = disc.forward(d_in)
            loss, grad = _bce_and_grad(p, targets)
            disc.backward(grad)
            opt_d.step([disc.params], [disc.grads])
            return loss

        def gen_step(idx) -> float:
            lab = onehot[idx] if onehot is not None else None
            z = rng.standard_normal((idx.size, hyper.noise_dim))
            g_in = np.hstack([z, lab]) if lab is not None else z
            fake = gen.forward(g_in)
            p = disc.forward(_with_channels(fake, lab))
            p_c = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
            loss = float(-np.mean(np.log(p_c)))
            grad_p = -1.0 / p_c / p.size
            g_d_in = disc.backward(grad_p)
            gen.backward(g_d_in[:, 0, :])
            opt_g.step([gen.params], [gen.grads])
            return loss

        for _epoch in range(hyper.epochs):
            perm = rng.permutation(n)
            n_batches = n // batch
            d_losses, g_losses = [], []
            for it in range(n_batches // 2):
                idx1 = perm[(2 * it) * batch : (2 * it + 1) * batch]
                idx2 = perm[(2 * it + 1) * batch : (2 * it + 2) * batch]
                d_losses.append(disc_step(idx1))
                d_losses.append(disc_step(idx2))
                log.disc_updates += 2
                g_losses.append(gen_step(idx2))
                log.gen_updates += 1

            n_trace = min(hyper.trace_samples, n)
            subset = rng.choice(n, size=n_trace, replace=False)
            z = rng.standard_normal((n_trace, hyper.noise_dim))
            if onehot is not None:
                lab_idx = rng.integers(0, n, n_trace)
                z = np.hstack([z, onehot[lab_idx]])
            fakes = gen.forward(z)
            # trace in the data's real units, not the standardized ones
            real_pool = X_real[subset].ravel()
            fake_pool = (centre + (fakes - centre) * scale).ravel()
            entry = {
                "disc_loss": float(np.mean(d_losses)) if d_losses else float("nan"),
                "gen_loss": float(np.mean(g_losses)) if g_losses else float("nan"),
                "w_hist": wasserstein_histogram(real_pool, fake_pool),
                "w_exact": wasserstein_1d(real_pool, fake_pool),
            }
            log.epochs.append(entry)
            finite = (
                np.isfinite(list(entry.values())).all()
                and np.isfinite(gen.params).all()
                and np.isfinite(disc.params).all()
            )
            if not finite:
                diverged = True
                log.attempts[-1]["diverged"] = True
                break

        if not diverged:
            return gen, disc, log, scale

    raise DivergenceDetected(
        f"level {level.value} training went non-finite twice (last lr {lr})"
    )


def train_gan(
    dataset: Sequence[LoadProfile], level: Level, hyper: HyperParams, seed: int
) -> GanModel:
    """Train the unconditional model for level 1 or 2."""
    X = _dataset_matrix(dataset, level)
    gen, disc, log, scale = _train_adversarial(X, None, level, hyper, seed)
    return GanModel(
        level=level,
        noise_dim=hyper.noise_dim,
        generator=gen,
        discriminator=disc,
        log=log,
        amplitude_scale=scale,
    )


def train_cgan(
    dataset: Sequence[LoadProfile],
    labels: Optional[Sequence[tuple[LoadClass, Season]]] = None,
    hyper: HyperParams = HyperParams(),
    seed: int = 0,
    level: Level = Level.L3,
) -> CGanModel:
    """Train the conditional model; every label combo needs a full batch."""
    if labels is None:
        labels = [(p.load_class, p.season) for p in dataset]
    if len(labels) != len(dataset):
        raise ValueError("labels must parallel the dataset")
    check_label_coverage(labels, hyper.batch_size)
    X = _dataset_matrix(dataset, level)
    onehot = encode_labels(labels)
    gen, disc, log, scale = _train_adversarial(X, onehot, level, hyper, seed)
    return CGanModel(
        level=level,
        noise_dim=hyper.noise_dim,
        generator=gen,
        discriminator=disc,
        log=log,
        amplitude_scale=scale,
    )


def _noise_rows(seed: int, count: int, dim: int) -> np.ndarray:
    # counter-based streams: profile i draws from generator (seed, i), so a
    # batch's noise does not depend on how generation is chunked
    out = np.empty((count, dim))
    for i in range(count):
        out[i] = np.random.default_rng((seed, i)).standard_normal(dim)
    return out


def gan_generate(
    model: GanModel,
    count: int,
    seed: int,
    labels: Optional[Sequence[tuple[LoadClass, Season]] | tuple[LoadClass, Season]] = None,
) -> np.ndarray:
    """Sample ``count`` profiles as one float64 (count, profile length) array.

    Mean-one levels are rescaled to mean exactly 1, the detrended level to
    mean exactly 0.  Rows are plain samples; wrap them in a LoadProfile
    only where a dataset is built.  Raises DegenerateProfile when any
    sample is non-finite (for example from a non-finite weight).
    """
    if model.conditional:
        if labels is None:
            raise LabelRequired("conditional generation needs (load class, season) labels")
        if isinstance(labels, tuple) and len(labels) == 2 and isinstance(labels[0], LoadClass):
            labels = [labels] * count
        labels = list(labels)
        if len(labels) != count:
            raise ValueError(f"need {count} labels, got {len(labels)}")
    elif labels is not None:
        raise ValueError("unconditional models take no labels")

    spec = LEVEL_SPECS[model.level]
    zero_mean = LEVEL_NORMALIZATION[model.level] is Normalization.ZERO_MEAN_DETRENDED

    z = _noise_rows(seed, count, model.noise_dim)
    if model.conditional:
        z = np.hstack([z, encode_labels(labels)])
    outputs = np.empty((count, spec.profile_length))
    for lo in range(0, count, 512):
        hi = min(lo + 512, count)
        outputs[lo:hi] = model.generator.forward(z[lo:hi])
    outputs = model.centre + (outputs - model.centre) * model.amplitude_scale

    if not zero_mean:
        # loads are physically nonnegative; only reachable when the training
        # data was wider than the activation range (amplitude_scale > 2)
        outputs = np.maximum(outputs, 0.0)
    means = outputs.mean(axis=1, keepdims=True)
    outputs = outputs - means if zero_mean else outputs / means
    if not np.all(np.isfinite(outputs)):
        raise DegenerateProfile(
            f"level {model.level.value} generator produced non-finite samples"
        )
    return outputs
