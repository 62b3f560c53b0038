"""Parametric ground-truth load simulator.

Produces multi-year "real" bus load with known structure, standing in for
an actual measurement archive at desk scale.  The signal is

    load(t) = base_mw * yearly(t) * daily(t) * (1 + n(t))

where yearly and daily are truncated Fourier series (2 harmonics of 1/year,
3 harmonics of 1/day) and n(t) is AR(1) noise at the 30 Hz measurement
rate, clipped to (-0.9, 0.9) so the output stays strictly positive.

Residential and industrial parameter sets reproduce the qualitative class
contrast seen in practice: residential loads have pronounced summer and
winter peaks and a smooth daily curve; industrial loads are nearly flat
across the year but irregular within the day.

Materializing years of 30 Hz data is infeasible (~1e9 samples per load per
year), so two sampling paths are provided:

* :func:`simulate_ground_truth` materializes the full 30 Hz signal, for
  windows up to hours;
* :func:`simulate_block_means` returns block averages over any span.  The
  deterministic part is averaged in closed form over each block's 30 Hz
  sample grid (the product of the two Fourier series is a finite cosine
  sum, and the discrete average of a cosine has a Dirichlet-kernel closed
  form); the block means of the AR(1) noise are drawn exactly from their
  closed-form joint Gaussian distribution, block by block, carrying the
  end state.  Within a block the noise is weighted by the deterministic
  value at the block centre (the deterministic factor moves by <0.5% over
  30 s, so the error is far below the noise scale).

The deterministic curve depends on neither the seed nor base_mw, and on
the class only through the Fourier amplitudes.  :func:`desk_level_datasets`
therefore computes it once per fleet: each cosine array once for all its
loads, weighted once per distinct shape (config up to seed and base_mw),
by the same expressions and in the same order as for a single load, so
the floats are those of :func:`simulate_block_means` load by load.  Only
the AR(1) block noise is drawn per load.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.signal import lfilter

from .core import LoadClass

DAY_S = 86_400.0
YEAR_S = 52 * 604_800.0

# Fixed shape constants: evening peak at 18:00, arbitrary but frozen phases
# for the higher daily harmonics (they shape the industrial multi-peak day).
_DAILY_PEAK_S = 18 * 3600.0
_RIPPLE_PHASE_2 = 0.9
_RIPPLE_PHASE_3 = 2.1

_NOISE_CLIP = 0.9


def _yearly_cosines(t):
    """The cosines that yearly(t) weights; they depend on t alone."""
    t = np.asarray(t, dtype=np.float64)
    w = 2.0 * np.pi / YEAR_S
    return np.cos(w * t), np.cos(2 * w * t)


def _daily_cosines(t):
    """The cosines that daily(t) weights; they depend on t alone."""
    t = np.asarray(t, dtype=np.float64)
    w = 2.0 * np.pi / DAY_S
    return (
        np.cos(w * (t - _DAILY_PEAK_S)),
        np.cos(2 * w * t + _RIPPLE_PHASE_2),
        np.cos(3 * w * t + _RIPPLE_PHASE_3),
    )


@dataclass(frozen=True)
class ToyLoadConfig:
    """Parameters of one simulated load; immutable and fully deterministic."""

    load_class: LoadClass
    base_mw: float
    seasonal_amp: float  # twice-yearly harmonic: summer + winter bumps
    seasonal_tilt: float  # once-yearly harmonic: winter-vs-summer asymmetry
    daily_amp: float  # fundamental daily swing
    daily_ripple: float  # 2nd+3rd daily harmonics (irregularity)
    ar_coeff: float  # AR(1) coefficient of the 30 Hz noise
    noise_rel_std: float  # stationary relative std of the fast noise
    seed: int

    def __post_init__(self):
        if not self.base_mw > 0:
            raise ValueError("base_mw must be positive")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ValueError("ar_coeff must be in [0, 1)")
        if not 0.0 <= self.noise_rel_std <= 0.2:
            raise ValueError("noise_rel_std must be in [0, 0.2]")
        # the block-noise variance var_eta is sigma_e**2 * (1 - rho**(2m)) /
        # (1 - rho**2) and 1 - rho**(2m) >= 1 - rho**2, so a normal (not
        # subnormal) sigma_e**2 * (1 - rho**2) keeps var_eta > 0 for every m
        sigma_e = self.noise_rel_std * math.sqrt(1.0 - self.ar_coeff**2)
        if self.noise_rel_std > 0 and sigma_e**2 * (1.0 - self.ar_coeff**2) < sys.float_info.min:
            raise ValueError(f"noise_rel_std {self.noise_rel_std!r} underflows the noise variance")

    @classmethod
    def residential(cls, seed: int, base_mw: float = 50.0) -> "ToyLoadConfig":
        return cls(
            load_class=LoadClass.MAINLY_RESIDENTIAL,
            base_mw=base_mw,
            seasonal_amp=0.15,
            seasonal_tilt=0.05,
            daily_amp=0.30,
            daily_ripple=0.03,
            ar_coeff=0.6,
            noise_rel_std=0.05,
            seed=seed,
        )

    @classmethod
    def industrial(cls, seed: int, base_mw: float = 80.0) -> "ToyLoadConfig":
        return cls(
            load_class=LoadClass.MAINLY_INDUSTRIAL,
            base_mw=base_mw,
            seasonal_amp=0.01,
            seasonal_tilt=0.005,
            daily_amp=0.08,
            daily_ripple=0.12,
            ar_coeff=0.6,
            noise_rel_std=0.08,
            seed=seed,
        )

    def yearly(self, t):
        """Seasonal modulation at time t (seconds from Jan 1); mean ~1."""
        return self._yearly_of(*_yearly_cosines(t))

    def daily(self, t):
        """Within-day modulation at time t; mean 1 over any whole day."""
        return self._daily_of(*_daily_cosines(t))

    def deterministic(self, t):
        return self.yearly(t) * self.daily(t)

    def _yearly_of(self, c1, c2):
        return 1.0 + self.seasonal_tilt * c1 + self.seasonal_amp * c2

    def _daily_of(self, c1, c2, c3):
        return 1.0 + self.daily_amp * c1 + self.daily_ripple * c2 + self.daily_ripple * c3

    def to_json(self) -> str:
        d = asdict(self)
        d["load_class"] = self.load_class.value
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ToyLoadConfig":
        d = json.loads(text)
        d["load_class"] = LoadClass(d["load_class"])
        return cls(**d)


def _rng_for(config: ToyLoadConfig, stream: int, offset_samples: int) -> np.random.Generator:
    # Documented seed split: independent streams keyed by (seed, stream tag,
    # start offset in 30 Hz samples).  Stream 0 = full rate, 1 = block means.
    return np.random.default_rng((config.seed, stream, offset_samples))


def split_load_seed(seed: int, load_index: int) -> int:
    """Derive the per-load seed for load ``load_index`` from a master seed."""
    ss = np.random.SeedSequence(entropy=(seed, load_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _cosine_terms(config: ToyLoadConfig) -> list[tuple[float, float, float]]:
    """yearly(t)*daily(t) expanded as a finite list of (amp, omega, phase)."""
    wy = 2.0 * np.pi / YEAR_S
    wd = 2.0 * np.pi / DAY_S
    yearly = [
        (config.seasonal_tilt, wy, 0.0),
        (config.seasonal_amp, 2 * wy, 0.0),
    ]
    daily = [
        (config.daily_amp, wd, -wd * _DAILY_PEAK_S),
        (config.daily_ripple, 2 * wd, _RIPPLE_PHASE_2),
        (config.daily_ripple, 3 * wd, _RIPPLE_PHASE_3),
    ]
    terms = [(1.0, 0.0, 0.0)]
    terms += yearly
    terms += daily
    for ay, oy, py in yearly:
        for ad, od, pd in daily:
            # cos(a)cos(b) = (cos(a-b) + cos(a+b)) / 2
            terms.append((0.5 * ay * ad, oy - od, py - pd))
            terms.append((0.5 * ay * ad, oy + od, py + pd))
    return terms


def _block_means_of_terms(term_lists, starts: np.ndarray, m: int, h: float) -> list[np.ndarray]:
    """Exact mean of each cosine sum over m samples spaced h from each start.

    The sums must list the same (omega, phase) terms in the same order, as
    every :func:`_cosine_terms` list does; only the amplitudes differ.  Each
    term's cosine array is therefore computed once for all the sums.

    Uses the closed form (1/m) sum_k cos(t0*w + p + k*w*h)
    = cos(t0*w + p + (m-1)*w*h/2) * sin(m*w*h/2) / (m*sin(w*h/2)),
    which matches the discrete sample average of the 30 Hz path to float
    precision, not just to quadrature order.
    """
    outs = [np.zeros(starts.size) for _ in term_lists]
    for column in zip(*term_lists):
        _, omega, phase = column[0]
        if omega == 0.0:
            for out, (amp, _, _) in zip(outs, column):
                out += amp * math.cos(phase)
        else:
            half = 0.5 * omega * h
            gain = math.sin(m * half) / (m * math.sin(half))
            cos = np.cos(omega * starts + phase + half * (m - 1))
            for out, (amp, _, _) in zip(outs, column):
                out += amp * gain * cos
    return outs


def _ar1_block_moments(rho: float, sigma_e: float, m: int):
    """Closed-form moments of one AR(1) block of length m.

    For the block sum S and end state E given start state n0:
        S = A*n0 + zeta,   E = rho^m * n0 + eta,
    with (zeta, eta) zero-mean jointly Gaussian.  Returns
    (A, rho^m, var_eta, var_zeta, cov_zeta_eta).
    """
    if m < 1:
        raise ValueError("block length must be >= 1")
    one = 1.0 - rho
    rho_m = rho**m
    rho_2m = rho ** (2 * m)
    if rho == 0.0:
        A = 0.0
    else:
        A = rho * (1.0 - rho_m) / one
    var_eta = sigma_e**2 * (1.0 - rho_2m) / (1.0 - rho**2)
    q = m - 2.0 * rho * (1.0 - rho_m) / one + rho**2 * (1.0 - rho_2m) / (1.0 - rho**2)
    var_zeta = sigma_e**2 * q / one**2
    cov = (sigma_e**2 / one) * (
        (1.0 - rho_m) / one - rho * (1.0 - rho_2m) / (1.0 - rho**2)
    )
    return A, rho_m, var_eta, var_zeta, cov


def _ar1_path(rho: float, sigma_e: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n samples of stationary AR(1) noise, clipped to +-0.9."""
    if sigma_e == 0.0:
        return np.zeros(n)
    sigma = sigma_e / math.sqrt(1.0 - rho**2)
    n0 = sigma * rng.standard_normal()
    innov = sigma_e * rng.standard_normal(n)
    out, _ = lfilter([1.0], [1.0, -rho], innov, zi=np.array([rho * n0]))
    return np.clip(out, -_NOISE_CLIP, _NOISE_CLIP)


def simulate_ground_truth(
    config: ToyLoadConfig, duration_s: float, start_time_s: float = 0.0
) -> np.ndarray:
    """Materialize the load at the full 30 Hz rate.

    Deterministic in (config, start_time_s).  The start time selects an
    independent noise stream, so disjoint windows are independent draws.
    """
    if duration_s < 30.0:
        raise ValueError("duration_s must be at least 30 s")
    n = int(round(duration_s * 30.0))
    t = start_time_s + np.arange(n) / 30.0
    det = config.base_mw * config.deterministic(t)
    sigma_e = config.noise_rel_std * math.sqrt(1.0 - config.ar_coeff**2)
    rng = _rng_for(config, 0, int(round(start_time_s * 30.0)))
    noise = _ar1_path(config.ar_coeff, sigma_e, n, rng)
    return det * (1.0 + noise)


def _samples_per_block(block_s: float) -> int:
    m = block_s * 30.0
    if not 1 <= m < math.inf or abs(m - round(m)) > 1e-9:
        raise ValueError("block_s must be a positive multiple of 1/30 s")
    return int(round(m))


def _shape_block_curves(
    shapes: list[ToyLoadConfig], block_s: float, n_blocks: int, start_time_s: float = 0.0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each shape's deterministic block means and its value at the block centres.

    A shape's seed and base_mw are not used.  Every cosine array is computed
    once for all the shapes; a shape's floats do not depend on which other
    shapes are in the list.
    """
    m = _samples_per_block(block_s)
    starts = start_time_s + block_s * np.arange(n_blocks)
    means = _block_means_of_terms([_cosine_terms(s) for s in shapes], starts, m, 1.0 / 30.0)
    centres = starts + 0.5 * block_s
    yearly, daily = _yearly_cosines(centres), _daily_cosines(centres)
    return [
        (mean, shape._yearly_of(*yearly) * shape._daily_of(*daily))
        for shape, mean in zip(shapes, means)
    ]


def _add_block_noise(
    config: ToyLoadConfig, curve: tuple[np.ndarray, np.ndarray], block_s: float,
    start_time_s: float = 0.0,
) -> np.ndarray:
    """One load's block means: its shape's curve with its own AR(1) block noise."""
    det_mean, det_center = curve
    m = _samples_per_block(block_s)
    sigma_e = config.noise_rel_std * math.sqrt(1.0 - config.ar_coeff**2)
    if sigma_e == 0.0:
        return config.base_mw * det_mean

    n_blocks = det_mean.size
    rho = config.ar_coeff
    A, rho_m, var_eta, var_zeta, cov = _ar1_block_moments(rho, sigma_e, m)
    rng = _rng_for(config, 1, int(round(start_time_s * 30.0)))
    sigma = config.noise_rel_std
    n_init = sigma * rng.standard_normal()
    z_eta = rng.standard_normal(n_blocks)
    z_extra = rng.standard_normal(n_blocks)
    eta = math.sqrt(var_eta) * z_eta
    # zeta | eta: regression on eta plus independent residual
    slope = cov / var_eta
    resid_var = max(var_zeta - cov**2 / var_eta, 0.0)
    zeta = slope * eta + math.sqrt(resid_var) * z_extra
    # end states follow an AR(1) recursion with coefficient rho^m
    end, _ = lfilter([1.0], [1.0, -rho_m], eta, zi=np.array([rho_m * n_init]))
    start_states = np.concatenate(([n_init], end[:-1]))
    noise_mean = np.clip((A * start_states + zeta) / m, -_NOISE_CLIP, _NOISE_CLIP)
    return config.base_mw * (det_mean + det_center * noise_mean)


def _fleet_block_means(
    configs: list[ToyLoadConfig], block_s: float, n_blocks: int, start_time_s: float = 0.0
) -> Iterator[np.ndarray]:
    """Yield simulate_block_means(config, ...) for each config in turn.

    The deterministic curves are computed once, one per distinct shape
    (config up to seed and base_mw); only the noise is drawn per load.
    """
    shape_of = [replace(cfg, seed=0, base_mw=1.0) for cfg in configs]
    shapes = list(dict.fromkeys(shape_of))
    curves = dict(zip(shapes, _shape_block_curves(shapes, block_s, n_blocks, start_time_s)))
    for cfg, shape in zip(configs, shape_of):
        yield _add_block_noise(cfg, curves[shape], block_s, start_time_s)


def simulate_block_means(
    config: ToyLoadConfig, block_s: float, n_blocks: int, start_time_s: float = 0.0
) -> np.ndarray:
    """Block averages of the simulated load without materializing 30 Hz data.

    ``block_s`` must be a whole number of 30 Hz samples.  One value per
    block; deterministic in (config, start_time_s, block_s).
    """
    (values,) = _fleet_block_means([config], block_s, n_blocks, start_time_s)
    return values


def desk_level_datasets(
    configs: list[ToyLoadConfig],
    n_years: int = 2,
    l1_windows_per_load: int = 200,
    l2_profiles_per_load: int = 250,
):
    """Training datasets for a fleet of simulated loads, at desk scale.

    Levels 2-4 come from the block-mean path over the full span; level 1
    windows are the only places the 30 Hz signal is materialized, spread
    evenly across the span (aligned to the 30-second grid so each window
    gets its own deterministic noise stream).
    """
    from . import ingest  # local import: ingest never imports toydata

    merged = ingest.LevelDatasets()
    span_s = n_years * YEAR_S
    fleet_m30 = _fleet_block_means(configs, 30.0, int(round(span_s / 30.0)))
    for cfg, m30 in zip(configs, fleet_m30):
        part = ingest.extract_levels_from_block_means(
            m30, cfg.load_class, 0.0, max_l2_profiles=l2_profiles_per_load
        )
        for j in range(l1_windows_per_load):
            t0 = 30.0 * math.floor(j * span_s / l1_windows_per_load / 30.0)
            window = simulate_ground_truth(cfg, 30.0, start_time_s=t0)
            part.l1.append(ingest.mean_one_profile(window, 1.0 / 30.0, cfg.load_class))
        merged.extend(part)
    return merged


def default_desk_configs(
    n_residential: int = 6, n_industrial: int = 6, seed: int = 2024
) -> list[ToyLoadConfig]:
    """The default desk-scale fleet: 12 loads of varied size, half per class."""
    rng = np.random.default_rng((seed, 0xD5))
    configs = []
    for i in range(n_residential):
        base = float(rng.uniform(20.0, 90.0))
        configs.append(ToyLoadConfig.residential(seed=split_load_seed(seed, i), base_mw=base))
    for i in range(n_industrial):
        base = float(rng.uniform(40.0, 150.0))
        configs.append(
            ToyLoadConfig.industrial(
                seed=split_load_seed(seed, n_residential + i), base_mw=base
            )
        )
    return configs
