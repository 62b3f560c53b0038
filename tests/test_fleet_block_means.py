"""Fleet block means, with shared deterministic curves, against per-load ones.

``oracle_simulate_block_means`` is the per-load simulator that the shared
path replaced, kept here verbatim (apart from its name and the start time
it no longer takes: the block path starts at t = 0) with the
``_block_means_of_terms`` and ``ToyLoadConfig.deterministic`` it called, as
the reference: it rebuilds the deterministic curve for every load.  For
every fleet, each load's block means from ``_fleet_block_means`` must equal
the oracle's float for float.

The oracle filters the AR(1) end states with ``scipy.signal.lfilter``, as
the simulator did before ``_ar1_filter`` replaced it; ``_ar1_filter`` is
checked against the same ``lfilter`` call byte for byte.
"""

import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from loadsynth import ingest, toydata
from loadsynth.cli import _dataset_fingerprint
from loadsynth.core import SECONDS_PER_YEAR as YEAR_S
from loadsynth.toydata import (
    _DAILY_PEAK_S,
    _NOISE_CLIP,
    _RIPPLE_PHASE_2,
    _RIPPLE_PHASE_3,
    DAY_S,
    ToyLoadConfig,
    _ar1_block_moments,
    _ar1_filter,
    _cosine_terms,
    _fleet_block_means,
    _rng_for,
    _shape_block_curves,
    desk_level_datasets,
)


def _deterministic(config, t):
    t = np.asarray(t, dtype=np.float64)
    w = 2.0 * np.pi / YEAR_S
    yearly = 1.0 + config.seasonal_tilt * np.cos(w * t) + config.seasonal_amp * np.cos(2 * w * t)
    w = 2.0 * np.pi / DAY_S
    daily = (
        1.0
        + config.daily_amp * np.cos(w * (t - _DAILY_PEAK_S))
        + config.daily_ripple * np.cos(2 * w * t + _RIPPLE_PHASE_2)
        + config.daily_ripple * np.cos(3 * w * t + _RIPPLE_PHASE_3)
    )
    return yearly * daily


def _block_means_of_terms(terms, starts, m, h):
    out = np.zeros(starts.size)
    for amp, omega, phase in terms:
        if omega == 0.0:
            out += amp * math.cos(phase)
        else:
            half = 0.5 * omega * h
            gain = math.sin(m * half) / (m * math.sin(half))
            out += amp * gain * np.cos(omega * starts + phase + half * (m - 1))
    return out


def oracle_simulate_block_means(config, block_s, n_blocks):
    m = block_s * 30.0
    if abs(m - round(m)) > 1e-9 or m < 1:
        raise ValueError("block_s must be a positive multiple of 1/30 s")
    m = int(round(m))
    starts = block_s * np.arange(n_blocks)
    det_mean = _block_means_of_terms(_cosine_terms(config), starts, m, 1.0 / 30.0)

    sigma_e = config.noise_rel_std * math.sqrt(1.0 - config.ar_coeff**2)
    if sigma_e == 0.0:
        return config.base_mw * det_mean

    rho = config.ar_coeff
    A, rho_m, var_eta, var_zeta, cov = _ar1_block_moments(rho, sigma_e, m)
    rng = _rng_for(config, 1, 0)
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

    det_center = _deterministic(config, starts + 0.5 * block_s)
    return config.base_mw * (det_mean + det_center * noise_mean)


# ----------------------------------------------------------------------
# random fleets
# ----------------------------------------------------------------------

# the shape fields a config may override, with the range each is drawn from;
# 0.0 is drawn often, so zero-noise and zero-amplitude loads occur
SHAPE_FIELDS = {
    "seasonal_amp": (0.0, 0.3),
    "seasonal_tilt": (0.0, 0.1),
    "daily_amp": (0.0, 0.4),
    "daily_ripple": (0.0, 0.2),
    "ar_coeff": (0.0, 0.95),
    "noise_rel_std": (0.0, 0.2),
}


@st.composite
def load_configs(draw):
    factory = draw(st.sampled_from([ToyLoadConfig.residential, ToyLoadConfig.industrial]))
    config = factory(
        seed=draw(st.integers(0, 2**64 - 1)),
        base_mw=draw(st.floats(0.5, 500.0)),
    )
    field = draw(st.sampled_from([None, *SHAPE_FIELDS]))
    if field is None:
        return config
    low, high = SHAPE_FIELDS[field]
    value = draw(st.just(0.0) | st.floats(low, high))
    sigma_e = value * math.sqrt(1.0 - config.ar_coeff**2)
    if field == "noise_rel_std" and value > 0 and sigma_e**2 * (1.0 - config.ar_coeff**2) < sys.float_info.min:
        # a noise level whose block-noise variance can underflow to 0, where
        # the oracle would divide by zero: the constructor rejects it
        with pytest.raises(ValueError, match="underflows"):
            replace(config, noise_rel_std=value)
        return config
    return replace(config, **{field: value})


@st.composite
def block_grids(draw):
    m = draw(st.integers(1, 3 * 30 * 3600))  # 1/30 s to 3 h
    block_s = draw(st.sampled_from([m / 30.0, m * (1.0 / 30.0)]))
    n_blocks = draw(st.integers(0, 300))
    return block_s, n_blocks


@settings(max_examples=150, deadline=None)
@given(fleet=st.lists(load_configs(), min_size=1, max_size=6), grid=block_grids())
@example(  # two industrial loads of different shapes behind a residential one
    fleet=[
        ToyLoadConfig.residential(seed=1, base_mw=10.0),
        ToyLoadConfig.industrial(seed=2, base_mw=20.0),
        replace(ToyLoadConfig.industrial(seed=3, base_mw=30.0), daily_ripple=0.2),
    ],
    grid=(30.0, 50),
)
def test_fleet_equals_per_load_oracle(fleet, grid):
    block_s, n_blocks = grid
    got = _fleet_block_means(fleet, block_s, n_blocks)
    for config in fleet:
        want = oracle_simulate_block_means(config, block_s, n_blocks)
        np.testing.assert_array_equal(next(got), want)
    assert next(got, None) is None


@st.composite
def ranged_grids(draw):
    """(block_s, n_blocks, blocks per range): a block count that leaves a
    partial last range."""
    per_range = draw(st.integers(2, 64))
    n_blocks = per_range * draw(st.integers(0, 6)) + draw(st.integers(1, per_range - 1))
    block_s = draw(st.integers(1, 3 * 30 * 3600)) / 30.0
    return block_s, n_blocks, per_range


def _curves(workers, shapes, block_s, n_blocks):
    """_shape_block_curves on a pool of `workers` threads."""
    with ThreadPoolExecutor(workers) as pool:
        return _shape_block_curves(shapes, block_s, n_blocks, pool)


@settings(max_examples=150, deadline=None)
@given(fleet=st.lists(load_configs(), min_size=1, max_size=4), grid=ranged_grids())
@example(  # the module's own range, crossed twice
    fleet=[ToyLoadConfig.residential(seed=1), ToyLoadConfig.industrial(seed=2)],
    grid=(30.0, 2 * toydata._RANGE_BLOCKS + 7, toydata._RANGE_BLOCKS),
)
def test_curves_by_block_range_equal_the_whole_array(fleet, grid):
    block_s, n_blocks, per_range = grid
    shapes = list(dict.fromkeys(replace(c, seed=0, base_mw=1.0) for c in fleet))
    with mock.patch.object(toydata, "_RANGE_BLOCKS", n_blocks):
        whole = _curves(toydata._worker_count(), shapes, block_s, n_blocks)
    with mock.patch.object(toydata, "_RANGE_BLOCKS", per_range):
        ranged = _curves(toydata._worker_count(), shapes, block_s, n_blocks)
    for (mean, centre), (want_mean, want_centre) in zip(ranged, whole, strict=True):
        assert mean.tobytes() == want_mean.tobytes()
        assert centre.tobytes() == want_centre.tobytes()


@settings(max_examples=150, deadline=None)
@given(fleet=st.lists(load_configs(), min_size=1, max_size=4), grid=ranged_grids())
@example(  # the module's own range, crossed twice
    fleet=[ToyLoadConfig.residential(seed=1), ToyLoadConfig.industrial(seed=2)],
    grid=(30.0, 2 * toydata._RANGE_BLOCKS + 7, toydata._RANGE_BLOCKS),
)
def test_noise_by_block_range_equals_the_oracle(fleet, grid):
    # the AR(1) state crosses each range boundary, and the second stream's
    # draws come in pieces
    block_s, n_blocks, per_range = grid
    with mock.patch.object(toydata, "_RANGE_BLOCKS", per_range):
        got = list(_fleet_block_means(fleet, block_s, n_blocks))
    for values, config in zip(got, fleet, strict=True):
        want = oracle_simulate_block_means(config, block_s, n_blocks)
        assert values.tobytes() == want.tobytes()


def _bytes_at(workers, fleet, grid):
    """Curve and load bytes with `workers` pool threads and many small ranges."""
    block_s, n_blocks, per_range = grid
    shapes = list(dict.fromkeys(replace(c, seed=0, base_mw=1.0) for c in fleet))
    with (
        mock.patch.object(toydata, "_RANGE_BLOCKS", per_range),
        mock.patch.object(toydata, "_worker_count", lambda: workers),
    ):
        curves = _curves(workers, shapes, block_s, n_blocks)
        loads = list(_fleet_block_means(fleet, block_s, n_blocks))
    return [a.tobytes() for pair in curves for a in pair], [v.tobytes() for v in loads]


@settings(max_examples=100, deadline=None)
@given(fleet=st.lists(load_configs(), min_size=1, max_size=6), grid=ranged_grids())
def test_bytes_do_not_depend_on_the_worker_count(fleet, grid):
    assert _bytes_at(3, fleet, grid) == _bytes_at(1, fleet, grid)


def test_bytes_do_not_depend_on_the_worker_count_under_stress():
    # more workers than CPUs, switching threads as often as the interpreter allows
    fleet = [ToyLoadConfig.residential(seed=1), ToyLoadConfig.industrial(seed=2),
             replace(ToyLoadConfig.industrial(seed=3), daily_ripple=0.2)] * 3
    grid = (30.0, 5000, 7)
    want = _bytes_at(1, fleet, grid)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _bytes_at((os.cpu_count() or 1) + 1, fleet, grid)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _spy_on_block_noise(monkeypatch, fleet, fail_at=None):
    """Patch _add_block_noise to log each load's index as it starts."""
    started = []
    add = toydata._add_block_noise

    def spy(config, *args):
        index = fleet.index(config)
        started.append(index)
        if index == fail_at:
            raise ValueError(f"load {index} failed")
        return add(config, *args)

    monkeypatch.setattr(toydata, "_add_block_noise", spy)
    return started


SEEDED_FLEET = [ToyLoadConfig.residential(seed=s) for s in range(4)] + [
    ToyLoadConfig.industrial(seed=s) for s in range(4, 9)
]


@pytest.mark.parametrize("workers", [1, 2, 3, toydata._LOADS_IN_FLIGHT + 2])
def test_loads_in_flight_are_bounded(monkeypatch, workers):
    monkeypatch.setattr(toydata, "_worker_count", lambda: workers)
    started = _spy_on_block_noise(monkeypatch, SEEDED_FLEET)
    before = threading.active_count()
    ahead = min(workers, toydata._LOADS_IN_FLIGHT)
    held = 0
    for i, values in enumerate(_fleet_block_means(SEEDED_FLEET, 30.0, 2000)):
        time.sleep(0.01)  # a slow consumer, so that unbounded work would run ahead
        assert max(started) <= i + ahead
        held += values.size
    assert held == 2000 * len(SEEDED_FLEET)
    assert sorted(started) == list(range(len(SEEDED_FLEET)))
    assert threading.active_count() == before


def test_a_load_error_reaches_the_consumer_in_load_order(monkeypatch):
    monkeypatch.setattr(toydata, "_worker_count", lambda: 3)
    _spy_on_block_noise(monkeypatch, SEEDED_FLEET, fail_at=2)
    before = threading.active_count()
    got = []
    with pytest.raises(ValueError, match="^load 2 failed$"):
        for values in _fleet_block_means(SEEDED_FLEET, 30.0, 100):
            got.append(values)
    assert len(got) == 2
    assert threading.active_count() == before


def test_pool_threads_end_when_the_consumer_fails(monkeypatch):
    monkeypatch.setattr(toydata, "_worker_count", lambda: 3)
    started = _spy_on_block_noise(monkeypatch, SEEDED_FLEET)
    before = threading.active_count()

    def fail(*args, **kwargs):
        raise RuntimeError("consumer failed")

    monkeypatch.setattr(ingest, "extract_levels_from_block_means", fail)
    with pytest.raises(RuntimeError, match="consumer failed") as failure:
        desk_level_datasets(SEEDED_FLEET, n_years=1, l1_windows_per_load=1, l2_profiles_per_load=1)
    # the traceback still holds the generator; the pool is shut down anyway
    assert failure.traceback and threading.active_count() == before
    assert max(started) <= 3  # the consumer failed holding load 0


def test_desk_fleet_fingerprint():
    # recorded with the per-load simulator; three shapes in four loads
    fleet = [
        ToyLoadConfig.residential(seed=11, base_mw=30.0),
        ToyLoadConfig.industrial(seed=12, base_mw=70.0),
        ToyLoadConfig.residential(seed=13, base_mw=55.0),
        replace(ToyLoadConfig.industrial(seed=14, base_mw=20.0), daily_ripple=0.2),
    ]
    datasets = desk_level_datasets(
        fleet, n_years=1, l1_windows_per_load=4, l2_profiles_per_load=6
    )
    assert _dataset_fingerprint(datasets) == (
        "268b51658727cf5d313abdef26f8f06b23919b49201c33e78310544dd9a34dbf"
    )


# ----------------------------------------------------------------------
# the AR(1) filter against lfilter
# ----------------------------------------------------------------------

# 0.6**900 is the block-to-block coefficient of 30 s blocks at 30 Hz
AR1_RHOS = [0.0, 0.6**900, 0.6, 0.95, 0.999]


def lfilter_ar1(rho, x, y0):
    return lfilter([1.0], [1.0, -rho], x, zi=np.array([rho * y0]))[0]


@st.composite
def ar1_inputs(draw):
    """(rho, x, y0): x with runs of repeated values, exact zeros, and values
    over up to 600 decades; never -0.0 (see _ar1_filter)."""
    rho = draw(st.sampled_from(AR1_RHOS) | st.floats(0.0, 0.999))
    n = draw(st.integers(0, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal(n)
    if draw(st.booleans()):
        x *= 10.0 ** rng.integers(-300, 300, n)
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9, 1.0]))] = 0.0
    if draw(st.booleans()):
        x = x[np.sort(rng.integers(0, n, n))]
    y0 = draw(st.sampled_from([0.0, 0.05, -1.0, 1e300]) | st.floats(-1e3, 1e3))
    return rho, x + 0.0, y0


def spike(n):
    """A huge first value the recursion carries far past one warm-up."""
    x = np.ones(n)
    x[0] = 1e300
    return x


@settings(max_examples=300, deadline=None)
@given(args=ar1_inputs())
@example(args=(0.6**900, spike(200), 0.0))
@example(args=(0.6, np.zeros(12_000), -1.0))
@example(args=(0.0, np.zeros(200), -1.0))
def test_ar1_filter_equals_lfilter(args):
    rho, x, y0 = args
    assert _ar1_filter(rho, x, y0).tobytes() == lfilter_ar1(rho, x, y0).tobytes()


@pytest.mark.parametrize("rho", AR1_RHOS)
def test_ar1_filter_equals_lfilter_on_a_million_samples(rho):
    rng = np.random.default_rng(9)
    x = 0.04 * rng.standard_normal(1 << 20)
    x[rng.random(x.size) < 0.01] = 0.0
    x[rng.integers(0, x.size, 100)] = 1e300
    assert _ar1_filter(rho, x, 0.05).tobytes() == lfilter_ar1(rho, x, 0.05).tobytes()


def test_ar1_filter_repairs_chunks_that_start_wrong(monkeypatch):
    # a chunk that starts from 0 one warm-up before it misses the spike
    repair = toydata._ar1_repair
    repaired = []

    def spy(rho, x, y, bad, end):
        repaired.extend(bad.tolist())
        repair(rho, x, y, bad, end)

    monkeypatch.setattr(toydata, "_ar1_repair", spy)
    x = spike(12_000)
    assert _ar1_filter(0.6, x, 0.0).tobytes() == lfilter_ar1(0.6, x, 0.0).tobytes()
    # 1e300 * 0.6**k falls below half an ulp of 1.0 at k = 1425; chunks
    # that start later are right as computed
    assert repaired and max(repaired) < 1425 + toydata._ar1_warm_up(0.6)
