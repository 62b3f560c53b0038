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
* :func:`simulate_block_means` returns block averages from t = 0.  The
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
the AR(1) block noise is drawn per load.  Every step after the draws is
element-wise but for the AR(1) recursion, which carries its state from one
range of blocks to the next, so the curve and the noise are evaluated in
cache-sized ranges of blocks, with the floats of whole-array expressions;
a load's noise needs no array of its size but its output.

That work runs on a thread pool with one worker per CPU the process may run
on (:func:`_worker_count`), made per fleet and shut down before the fleet's
generator ends: the curve ranges run on it in any order, each writing its
own slice, and the loads run on it at most _LOADS_IN_FLIGHT (and at most
the worker count) ahead of the load the caller holds, since each holds a
load-sized array.  The numpy steps release the GIL; none calls BLAS, each
range or load is computed by the same expressions whichever thread runs
it, and each load draws from its own generator, so the floats do not
depend on the worker count.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .core import LEVEL_SPECS, PMU_RATE_HZ, SECONDS_PER_YEAR, Level, LoadClass, sub_seed

DAY_S = 86_400.0

# Fixed shape constants: evening peak at 18:00, arbitrary but frozen phases
# for the higher daily harmonics (they shape the industrial multi-peak day).
_DAILY_PEAK_S = 18 * 3600.0
_RIPPLE_PHASE_2 = 0.9
_RIPPLE_PHASE_3 = 2.1

_NOISE_CLIP = 0.9

# _ar1_filter runs an input of fewer chunks than this in one loop, which is
# faster for it, and a longer one this many chunks per lockstep block
_AR1_MIN_CHUNKS = 64
_AR1_BLOCK_CHUNKS = 16384
# _shape_block_curves and _add_block_noise evaluate this many blocks at a time
_RANGE_BLOCKS = 1 << 15
# _fleet_block_means starts at most this many loads ahead of the one its
# caller holds, each with its own load-sized output array; the one-thread
# simulator had five such arrays alive at once.  At the default 12-load x
# 2-year fleet, train's peak RSS was 260 MB with one thread, 267 MB with 4
# workers, and 312 MB with 12 workers and all 12 loads in flight
_LOADS_IN_FLIGHT = 4


def _worker_count() -> int:
    """Threads of the simulator's pool: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _yearly_cosines(t):
    """The cosines that yearly(t) weights; they depend on t alone."""
    t = np.asarray(t, dtype=np.float64)
    w = 2.0 * np.pi / SECONDS_PER_YEAR
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
        if not (math.isfinite(self.base_mw) and self.base_mw > 0):
            raise ValueError(f"base_mw {self.base_mw} must be finite and positive")
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


def _rng_for(config: ToyLoadConfig, stream: int, offset_samples: int) -> np.random.Generator:
    # Documented seed split: independent streams keyed by (seed, stream tag,
    # start offset in 30 Hz samples).  Stream 0 = full rate, 1 = block means.
    return np.random.default_rng((config.seed, stream, offset_samples))


def _cosine_terms(config: ToyLoadConfig) -> list[tuple[float, float, float]]:
    """yearly(t)*daily(t) expanded as a finite list of (amp, omega, phase)."""
    wy = 2.0 * np.pi / SECONDS_PER_YEAR
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


def _ar1_loop(rho: float, x: np.ndarray, y_prev: float) -> list[float]:
    """The recursion of :func:`_ar1_filter`, one sample at a time."""
    out = x.tolist()
    y = y_prev
    for i, v in enumerate(out):
        y = rho * y + v
        out[i] = y
    return out


def _ar1_warm_up(rho: float) -> int:
    """Samples over which a start state's weight falls below 2**-64."""
    if rho == 0.0:
        return 1
    return max(1, math.ceil(64 * math.log(2.0) / -math.log(rho)))


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _ar1_filter(rho: float, x: np.ndarray, y_prev: float) -> np.ndarray:
    """y[i] = rho*y[i-1] + x[i] with y[-1] = y_prev, for 0 <= rho < 1.

    Each product and each sum is rounded on its own, in this order, so the
    floats are those of ``lfilter([1], [1, -rho], x, zi=[rho*y_prev])`` for
    every input without -0.0 or infinities (lfilter's direct form adds
    ``0*x`` to each state, which can flip the sign of a zero state or turn
    an infinite input into NaN).

    The input is cut into chunks of one warm-up (:func:`_ar1_warm_up`).  With
    fewer than _AR1_MIN_CHUNKS chunks, as short inputs and those with rho
    near 1 have, it runs :func:`_ar1_loop`.  Otherwise the chunks run in
    lockstep, _AR1_BLOCK_CHUNKS at a time: a block's first chunk starts from
    the exact state before it, every other chunk from a zero state one chunk
    earlier.  One vectorised pass then checks every sample, bit for bit,
    against the recursion applied to the sample before it; from each sample
    that fails, samples are recomputed in order until one agrees.  By
    induction the result is the sequential one.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    warm = _ar1_warm_up(rho)
    if n < _AR1_MIN_CHUNKS * warm:
        return np.array(_ar1_loop(rho, x, y_prev), dtype=np.float64)

    y = np.empty(n)
    stop = n // warm * warm
    y[:warm] = _ar1_loop(rho, x[:warm], y_prev)
    for start in range(warm, stop, warm * _AR1_BLOCK_CHUNKS):
        end = min(start + warm * _AR1_BLOCK_CHUNKS, stop)
        # element c of a step belongs to the chunk at start + c*warm
        state = x[start - warm : end - warm : warm].copy()
        for s in range(1 - warm, 0):
            state *= rho
            state += x[start + s : end + s : warm]
        state[0] = y[start - 1]
        for s in range(warm):
            step = y[start + s : end : warm]
            np.multiply(state, rho, out=step)
            step += x[start + s : end : warm]
            state = step
        block = y[start:end]
        expect = block[:-1] * rho
        expect += x[start + 1 : end]
        differs = expect.view(np.int64) != block[1:].view(np.int64)
        if differs.any():
            _ar1_repair(rho, x, y, np.flatnonzero(differs) + start + 1, end)
    y[stop:] = _ar1_loop(rho, x[stop:], y[stop - 1])
    return y


def _ar1_repair(rho: float, x: np.ndarray, y: np.ndarray, bad: np.ndarray, end: int) -> None:
    """Recompute y in order from each index in `bad` until it agrees again.

    Below `end`, y[i] = rho*y[i-1] + x[i] holds bit for bit at every index
    not in `bad`, and y[i-1] is right for the smallest index in `bad`.
    """
    done = 0
    for i in bad.tolist():
        if i < done:
            continue
        while i < end:
            v = rho * y[i - 1] + x[i]
            if _same_bits(v, y[i]):
                break
            y[i] = v
            i += 1
        done = i


def simulate_ground_truth(
    config: ToyLoadConfig, duration_s: float, start_time_s: float = 0.0
) -> np.ndarray:
    """Materialize the load at the full 30 Hz rate.

    Deterministic in (config, start_time_s).  The start time selects an
    independent noise stream, so disjoint windows are independent draws.
    """
    if duration_s < LEVEL_SPECS[Level.L1].span_s:
        raise ValueError("duration_s must be at least 30 s")
    n = int(round(duration_s * PMU_RATE_HZ))
    t = start_time_s + np.arange(n) / PMU_RATE_HZ
    det = config.base_mw * config.deterministic(t)
    sigma_e = config.noise_rel_std * math.sqrt(1.0 - config.ar_coeff**2)
    if sigma_e == 0.0:
        return det
    rho = config.ar_coeff
    rng = _rng_for(config, 0, int(round(start_time_s * PMU_RATE_HZ)))
    n0 = sigma_e / math.sqrt(1.0 - rho**2) * rng.standard_normal()
    innov = sigma_e * rng.standard_normal(n)
    noise = np.clip(_ar1_filter(rho, innov, n0), -_NOISE_CLIP, _NOISE_CLIP)
    return det * (1.0 + noise)


def _samples_per_block(block_s: float) -> int:
    m = block_s * PMU_RATE_HZ
    if not 1 <= m < math.inf or abs(m - round(m)) > 1e-9:
        raise ValueError("block_s must be a positive multiple of 1/30 s")
    return int(round(m))


def whole_blocks(duration_s: float, block_s: float) -> int:
    """The blocks of ``block_s`` that fit in ``duration_s``, in whole 30 Hz ticks.

    Ticks are counted first (3600 // 0.1 is 35999.0 in floats): a tick
    missed only by the float's rounding counts (8.2d is 21254399.999999996
    ticks), a part of one does not (29.99s)."""
    ticks = duration_s * PMU_RATE_HZ
    n_ticks = math.floor(ticks)
    if math.isclose(ticks, n_ticks + 1, rel_tol=1e-12):
        n_ticks += 1
    return n_ticks // _samples_per_block(block_s)


def _shape_block_curves(
    shapes: list[ToyLoadConfig], block_s: float, n_blocks: int, pool
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each shape's deterministic block means and its value at the block centres.

    A shape's seed and base_mw are not used.  Every cosine array is computed
    once for all the shapes; a shape's floats do not depend on which other
    shapes are in the list.  The blocks are evaluated _RANGE_BLOCKS at a time,
    so the cosine arrays of one range stay in cache while they are weighted;
    every step is element-wise and ``block_s * np.arange(lo, hi)`` holds the
    floats of the whole array's slice, so the ranges give the whole array's
    floats.  The ranges run on `pool` (an executor), each writing its own
    slice of the output arrays, so the order they run in does not matter.
    """
    m = _samples_per_block(block_s)
    term_lists = [_cosine_terms(s) for s in shapes]
    curves = [(np.empty(n_blocks), np.empty(n_blocks)) for _ in shapes]

    def fill(lo: int) -> None:
        hi = min(lo + _RANGE_BLOCKS, n_blocks)
        starts = block_s * np.arange(lo, hi)
        means = _block_means_of_terms(term_lists, starts, m, LEVEL_SPECS[Level.L1].sampling_period_s)
        centres = starts + 0.5 * block_s
        yearly, daily = _yearly_cosines(centres), _daily_cosines(centres)
        for shape, mean, (mean_out, centre_out) in zip(shapes, means, curves):
            mean_out[lo:hi] = mean
            centre_out[lo:hi] = shape._yearly_of(*yearly) * shape._daily_of(*daily)

    for _ in pool.map(fill, range(0, n_blocks, _RANGE_BLOCKS)):
        pass  # re-raises a range's exception here
    return curves


def _add_block_noise(
    config: ToyLoadConfig, curve: tuple[np.ndarray, np.ndarray], block_s: float, out: np.ndarray
) -> np.ndarray:
    """One load's block means: its shape's curve with its own AR(1) block noise.

    Written to `out`, an array of the curve's size, and returned.  The
    caller allocates it, so a pool thread allocates no array of a load's
    size (glibc gives each thread its own heap, and a load-sized array freed
    in a pool thread's heap stays resident, unused by the caller's later
    steps).  The draws of eta go to `out` first; every later step is
    element-wise but for the AR(1) recursion of the end states, which is
    carried from range to range by its last state, so the blocks are
    computed _RANGE_BLOCKS at a time with the floats of whole-array
    expressions.  z_extra is drawn range by range, in order, which gives
    the floats of one call's draws.
    """
    det_mean, det_center = curve
    m = _samples_per_block(block_s)
    sigma_e = config.noise_rel_std * math.sqrt(1.0 - config.ar_coeff**2)
    if sigma_e == 0.0:
        return np.multiply(config.base_mw, det_mean, out=out)

    rho = config.ar_coeff
    A, rho_m, var_eta, var_zeta, cov = _ar1_block_moments(rho, sigma_e, m)
    rng = _rng_for(config, 1, 0)
    sigma = config.noise_rel_std
    n_init = sigma * rng.standard_normal()
    rng.standard_normal(out=out)  # z_eta
    # zeta | eta: regression on eta plus independent residual
    slope = cov / var_eta
    resid_var = max(var_zeta - cov**2 / var_eta, 0.0)
    state = n_init  # the start state of the range's first block
    for lo in range(0, out.size, _RANGE_BLOCKS):
        hi = min(lo + _RANGE_BLOCKS, out.size)
        # each element by the same operations in the same order as the
        # whole-array expressions in the comments
        eta = out[lo:hi]
        eta *= math.sqrt(var_eta)  # eta = sqrt(var_eta) * z_eta
        zeta = rng.standard_normal(hi - lo)
        zeta *= math.sqrt(resid_var)
        zeta += slope * eta  # zeta = slope * eta + sqrt(resid_var) * z_extra
        # end states follow an AR(1) recursion with coefficient rho^m; each
        # block starts from the end state of the block before it
        end = _ar1_filter(rho_m, eta, state)
        noise = np.empty(hi - lo)
        noise[0] = state
        noise[1:] = end[:-1]
        state = end[-1]
        noise *= A
        noise += zeta
        noise /= m
        np.clip(noise, -_NOISE_CLIP, _NOISE_CLIP, out=noise)  # the noise mean
        noise *= det_center[lo:hi]
        noise += det_mean[lo:hi]
        np.multiply(noise, config.base_mw, out=eta)  # base_mw * (det_mean + det_center * noise_mean)
    return out


def _fleet_block_means(
    configs: list[ToyLoadConfig], block_s: float, n_blocks: int
) -> Iterator[np.ndarray]:
    """Yield simulate_block_means(config, ...) for each config in turn.

    The deterministic curves are computed once, one per distinct shape
    (config up to seed and base_mw); only the noise is drawn per load.  The
    curve ranges and the loads' noise run on one pool of :func:`_worker_count`
    threads.  While the caller holds load i, loads up to i + ahead have
    started and none past it, with ahead the smaller of the worker count and
    _LOADS_IN_FLIGHT, so at most that many loads' arrays are alive besides
    the one held.  A load's exception is raised here, in load order.  Close
    the generator (or exhaust it) to shut the pool down.
    """
    # imported here: concurrent.futures (with logging and queue) adds about
    # 0.8 MB to every command's import, and only the simulator uses it
    from concurrent.futures import ThreadPoolExecutor

    shape_of = [replace(cfg, seed=0, base_mw=1.0) for cfg in configs]
    shapes = list(dict.fromkeys(shape_of))
    workers = _worker_count()
    with ThreadPoolExecutor(workers) as pool:
        curves = dict(zip(shapes, _shape_block_curves(shapes, block_s, n_blocks, pool)))
        jobs = (  # each load's array is allocated here, in the caller's thread
            pool.submit(_add_block_noise, cfg, curves[shape], block_s, np.empty(n_blocks))
            for cfg, shape in zip(configs, shape_of)
        )
        pending = deque(islice(jobs, min(workers, _LOADS_IN_FLIGHT)))
        while pending:
            job = pending.popleft()
            pending.extend(islice(jobs, 1))
            yield job.result()


def simulate_block_means(config: ToyLoadConfig, block_s: float, n_blocks: int) -> np.ndarray:
    """Block averages of the simulated load from t = 0, without materializing 30 Hz data.

    ``block_s`` must be a whole number of 30 Hz samples.  One value per
    block; deterministic in (config, block_s).
    """
    (values,) = _fleet_block_means([config], block_s, n_blocks)
    return values


def desk_level_datasets(
    configs: list[ToyLoadConfig],
    n_years: int,
    l1_windows_per_load: int,
    l2_profiles_per_load: int,
):
    """Training datasets for a fleet of simulated loads, at desk scale.

    Levels 2-4 come from the block-mean path over the full span; level 1
    windows are the only places the 30 Hz signal is materialized, spread
    evenly across the span (aligned to the 30-second grid so each window
    gets its own deterministic noise stream).  A window starting at t0
    is ``simulate_ground_truth(config, 30.0, t0)``.
    """
    from . import ingest  # local import: ingest never imports toydata

    parts = []
    span_s = n_years * SECONDS_PER_YEAR
    halfmin = LEVEL_SPECS[Level.L2].sampling_period_s  # 30 s, also the level-1 span
    fleet = _fleet_block_means(configs, halfmin, int(round(span_s / halfmin)))
    with closing(fleet):  # an exception here shuts the pool down
        for cfg, m30 in zip(configs, fleet):
            part = ingest.extract_levels_from_block_means(
                m30, cfg.load_class, 0.0, max_l2_profiles=l2_profiles_per_load
            )
            starts = [
                halfmin * math.floor(j * span_s / l1_windows_per_load / halfmin)
                for j in range(l1_windows_per_load)
            ]
            windows = np.stack([simulate_ground_truth(cfg, halfmin, t0) for t0 in starts])
            ingest.add_mean_one_rows(part, Level.L1, windows, cfg.load_class)
            parts.append(part)
    return ingest.LevelDatasets.concatenate(parts)


def default_desk_configs(n_residential: int, n_industrial: int, seed: int) -> list[ToyLoadConfig]:
    """A desk-scale fleet of loads of varied size, residential loads first."""
    rng = np.random.default_rng((seed, 0xD5))
    configs = []
    for i in range(n_residential):
        base = float(rng.uniform(20.0, 90.0))
        configs.append(ToyLoadConfig.residential(seed=sub_seed(seed, i), base_mw=base))
    for i in range(n_industrial):
        base = float(rng.uniform(40.0, 150.0))
        configs.append(
            ToyLoadConfig.industrial(
                seed=sub_seed(seed, n_residential + i), base_mw=base
            )
        )
    return configs
