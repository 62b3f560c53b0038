"""Adversarial training for the three fast/daily aggregation levels.

One trainer, ``train_gan``, trains level 1, 2 or 3 from that level's
ProfileSet.  CONDITIONED_LEVEL (level 3) alone is conditioned, on (load
class, season) as a 6-bit one-hot pair (2 class bits + 4 season bits), and
yields a CGanModel; the others yield a GanModel.  The labels are
concatenated to the generator's noise input and appended to the
discriminator input as constant-valued extra channels.  One table row per
level holds what its networks do not share (kernels and stride).

Training schedule: for every generator update the discriminator is updated
twice, each time on a fresh real batch against a fresh generated batch
(binary cross-entropy, real=1 / generated=0); the generator uses the
non-saturating loss.  Everything is a pure function of (dataset order,
hyperparameters, seed); if losses go non-finite the run restarts once with
the step halved on an explicitly different seed path, then gives up.
The discriminator lives only while training: a trained model is its
generator, amplitude scale and log.  Generation returns one float64
(count, profile length) array of samples: any range of a request's rows,
each the same whichever range it is drawn in (see ``row_pieces``).

Per epoch the log records mean losses plus the distribution distance
between pooled real and generated amplitudes over 500-sample subsets,
estimated both with the 100-bin histogram recipe and exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from ..core import (
    LEVEL_SPECS,
    Level,
    LoadClass,
    ProfileSet,
    Season,
    noise_rows,
)
from ..errors import DegenerateProfile, DivergenceDetected, InsufficientData
from ..validate import wasserstein_1d, wasserstein_histogram
from .network import Network, NetworkSpec, init_params
from .optim import LEARNING_RATE, Adam

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
    epochs: int
    batch_size: int
    noise_dim: int
    trace_samples: int = 500


# the level whose networks take (load class, season) labels
CONDITIONED_LEVEL = Level.L3

# per adversarial level: generator transposed-conv kernel, discriminator conv
# kernel and stride; lengths and output centres come from LEVEL_SPECS
_NETWORKS = {Level.L1: (4, 25, 5), Level.L2: (9, 9, 2), Level.L3: (4, 25, 5)}

# A generator forwards a request's rows in slices of SLICE_ROWS counted from
# row 0: the bits of a level-2 or level-3 row depend on the size of its
# slice (level 2 differs at 7, 255 and 511 rows, level 3 at 511).  A level-1
# row's bits are the same in any batch of two rows or more, so level 1 cuts
# its slices into pieces of _L1_PIECE_ROWS: a piece's forward peaks at
# 9.0 MiB of arrays where a full slice's peaks at 70.5 MiB (tracemalloc,
# numpy 2.4).  One row alone takes another BLAS path, with other bits, so
# no piece is one row unless its slice is.
SLICE_ROWS = 512
_L1_PIECE_ROWS = 64


def row_pieces(start: int, stop: int, size: int) -> list[tuple[int, int]]:
    """The (lo, hi) row ranges that cover rows start..stop-1 of a request.

    The range is cut at every multiple of ``size`` and of SLICE_ROWS; a
    one-row piece joins its neighbour in the same slice, where the range
    holds one.  Each piece of a request's whole range [0, n) then has two
    rows or more, unless its slice has one row, and a range of whole pieces
    of [0, n) is cut into those same rows' pieces (or into larger ones).
    """
    cuts = {start, stop}
    for step in (size, SLICE_ROWS):
        cuts.update(range(start - start % step + step, stop, step))
    bounds = sorted(cuts)
    pieces: list[tuple[int, int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if pieces and lo % SLICE_ROWS and 1 in (hi - lo, lo - pieces[-1][0]):
            pieces[-1] = (pieces[-1][0], hi)
        else:
            pieces.append((lo, hi))
    return pieces


def _forward_rows(generator: Network, level: Level, start: int, stop: int, inputs) -> np.ndarray:
    """The generator's output for rows start..stop-1 of a request, forwarded
    piece by piece (see ``row_pieces``); ``inputs(lo, hi)`` gives the input
    rows lo..hi-1, so no more than a piece of them need exist at once."""
    size = _L1_PIECE_ROWS if level is Level.L1 else SLICE_ROWS
    out = np.empty((stop - start, LEVEL_SPECS[level].profile_length))
    for lo, hi in row_pieces(start, stop, size):
        out[lo - start : hi - start] = generator.forward(inputs(lo, hi))
    return out


def _network_row(level: Level) -> tuple[int, int, int]:
    if level not in _NETWORKS:
        raise ValueError(f"no adversarial network for level {level}")
    return _NETWORKS[level]


def generator_spec(level: Level, noise_dim: int, label_dim: int = 0) -> NetworkSpec:
    k = _network_row(level)[0]
    out_len = LEVEL_SPECS[level].profile_length
    feat = out_len // 4  # two stride-2 transposed convolutions
    return NetworkSpec(
        layers=(
            ("dense", noise_dim + label_dim, 128),
            ("relu",),
            ("dense", 128, 256),
            ("relu",),
            ("dense", 256, 32 * feat),
            ("relu",),
            ("reshape", 32, feat),
            ("convt1d", 32, 16, k, 2, 2 * feat),
            ("relu",),
            ("convt1d", 16, 1, k, 2, out_len),
            ("scaled_tanh", LEVEL_SPECS[level].centre, 0.5),
            ("flatten",),
        )
    )


def discriminator_spec(level: Level, label_dim: int = 0) -> NetworkSpec:
    _, k, stride = _network_row(level)
    conv_out = (LEVEL_SPECS[level].profile_length - k) // stride + 1
    return NetworkSpec(
        layers=(
            ("conv1d", 1 + label_dim, 16, k, stride),
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
    """A trained generator plus the amplitude scale that standardized the data.

    Training maps real excursions around the level's ``LevelSpec.centre``
    (1 for mean-one levels, 0 for the detrended level) onto the output
    activation's range; ``amplitude_scale`` undoes that map at generation
    time, so generated excursions match the training data's scale even
    when it is far narrower than the activation bound.
    """

    level: Level
    noise_dim: int
    generator: Network
    log: TrainingLog
    amplitude_scale: float = 1.0

    @property
    def conditional(self) -> bool:
        return False


class CGanModel(GanModel):
    """A GanModel whose generator also takes LABEL_VOCAB's one-hot labels."""

    @property
    def conditional(self) -> bool:
        return True


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


_ACTIVATION_FILL = 0.95  # scaled excursions reach 95% of the tanh range


def check_trainable(profiles: ProfileSet, batch: int) -> None:
    """Raise InsufficientData unless ``train_gan`` can train on ``profiles``
    in batches of ``batch``.

    At CONDITIONED_LEVEL every row needs its class and season, and every
    label combo a full batch; then, at every level, the rows must fill the
    two batches of a step.
    """
    prefix = f"cannot train level {profiles.level.value[-1]}: "
    if profiles.level is CONDITIONED_LEVEL:
        labels = list(zip(profiles.load_class, profiles.season))
        if any(cls is None or season is None for cls, season in labels):
            raise InsufficientData(prefix + "every profile needs a (load class, season) label")
        counts = Counter(labels)
        missing = [f"({c.value}, {s.value}): {counts[c, s]} examples" for c, s in LABEL_VOCAB if counts[c, s] < batch]
        if missing:
            raise InsufficientData(f"{prefix}label combinations with too few examples: {', '.join(missing)}")
    if len(profiles) < 2 * batch:
        raise InsufficientData(f"{prefix}{len(profiles)} profiles < 2 batches of {batch}")


def train_gan(profiles: ProfileSet, hyper: HyperParams, seed: int) -> GanModel:
    """Train the model for the level of ``profiles`` (1, 2 or 3).

    At CONDITIONED_LEVEL the networks take the set's (load class, season)
    labels and the result is a CGanModel; elsewhere it is a GanModel.
    """
    batch = hyper.batch_size
    check_trainable(profiles, batch)
    level, X_real, n = profiles.level, profiles.samples, len(profiles)
    onehot, label_dim = None, 0
    if level is CONDITIONED_LEVEL:
        onehot = encode_labels(list(zip(profiles.load_class, profiles.season)))
        label_dim = LABEL_DIM
    log = TrainingLog()

    centre = LEVEL_SPECS[level].centre
    spread = float(np.max(np.abs(X_real - centre)))
    scale = spread / (0.5 * _ACTIVATION_FILL) if spread > 0 else 1.0
    X = centre + (X_real - centre) / scale

    for attempt in range(2):
        lr = LEARNING_RATE / (2.0**attempt)
        rng = np.random.default_rng((seed, attempt))
        gen_spec = generator_spec(level, hyper.noise_dim, label_dim)
        gen = Network(gen_spec, init_params(gen_spec, rng))
        disc_spec = discriminator_spec(level, label_dim)
        disc = Network(disc_spec, init_params(disc_spec, rng))
        opt_g = Adam([gen.params], lr)
        opt_d = Adam([disc.params], lr)
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
            tape = []
            p = disc.forward(d_in, tape)
            loss, grad = _bce_and_grad(p, targets)
            disc.backward(tape, grad, input_grad=False)  # nothing reads it
            opt_d.step([disc.params], [disc.grads])
            return loss

        def gen_step(idx) -> float:
            lab = onehot[idx] if onehot is not None else None
            z = rng.standard_normal((idx.size, hyper.noise_dim))
            g_in = np.hstack([z, lab]) if lab is not None else z
            gen_tape, disc_tape = [], []
            fake = gen.forward(g_in, gen_tape)
            p = disc.forward(_with_channels(fake, lab), disc_tape)
            p_c = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
            loss = float(-np.mean(np.log(p_c)))
            grad_p = -1.0 / p_c / p.size
            # the discriminator's gradients are not filled: the next disc_step
            # overwrites every one of them before an Adam step reads them
            g_d_in = disc.backward(disc_tape, grad_p, param_grads=False)
            gen.backward(gen_tape, g_d_in[:, 0, :], input_grad=False)
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
            fakes = _forward_rows(gen, level, 0, n_trace, lambda lo, hi: z[lo:hi])
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
            model_type = GanModel if onehot is None else CGanModel
            return model_type(
                level=level,
                noise_dim=hyper.noise_dim,
                generator=gen,
                log=log,
                amplitude_scale=scale,
            )

    raise DivergenceDetected(
        f"level {level.value} training went non-finite twice (last lr {lr})"
    )


def gan_generate(
    model: GanModel,
    count: int,
    seed: int,
    labels: Optional[Sequence[tuple[LoadClass, Season]]] = None,
    start: int = 0,
) -> np.ndarray:
    """Sample rows start..start+count-1 of a request as one float64
    (count, profile length) array.

    Row i draws its noise from ``noise_rows`` stream (seed, i).  A range
    made of whole pieces of the request (``row_pieces``) gives the same
    bits as the same rows of the whole request drawn at once.  A
    conditional model takes one (load class, season) label per row.
    Mean-one levels are rescaled to mean exactly 1, the detrended level to
    mean exactly 0.  Rows are plain samples; a ProfileSet is built only
    where a dataset is.  Raises DegenerateProfile when any
    sample is non-finite (for example from a non-finite weight).
    """
    if model.conditional:
        if labels is None:
            raise ValueError("conditional generation needs (load class, season) labels")
        if len(labels) != count:
            raise ValueError(f"need {count} labels, got {len(labels)}")
    elif labels is not None:
        raise ValueError("unconditional models take no labels")

    spec = LEVEL_SPECS[model.level]

    onehot = encode_labels(labels) if model.conditional else None

    def inputs(lo: int, hi: int) -> np.ndarray:
        z = noise_rows(seed, hi - lo, model.noise_dim, lo)
        return z if onehot is None else np.hstack([z, onehot[lo - start : hi - start]])

    outputs = _forward_rows(model.generator, model.level, start, start + count, inputs)
    # in place, each value as centre + (value - centre) * scale rounds it
    outputs -= spec.centre
    outputs *= model.amplitude_scale
    outputs += spec.centre

    if spec.centre:
        # loads are physically nonnegative; only reachable when the training
        # data was wider than the activation range (amplitude_scale > 2)
        np.maximum(outputs, 0.0, out=outputs)
    means = outputs.mean(axis=1, keepdims=True)
    if spec.centre:
        outputs /= means
    else:
        outputs -= means
    if not np.all(np.isfinite(outputs)):
        raise DegenerateProfile(
            f"level {model.level.value} generator produced non-finite samples"
        )
    return outputs
