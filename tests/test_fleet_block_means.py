"""Fleet block means, with shared deterministic curves, against per-load ones.

``oracle_simulate_block_means`` is the per-load simulator that the shared
path replaced, kept here verbatim (apart from its name) with the
``_block_means_of_terms`` and ``ToyLoadConfig.deterministic`` it called, as
the reference: it rebuilds the deterministic curve for every load.  For
every fleet, each load's block means from ``_fleet_block_means`` must equal
the oracle's float for float.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from loadsynth.cli import _dataset_fingerprint
from loadsynth.toydata import (
    _DAILY_PEAK_S,
    _NOISE_CLIP,
    _RIPPLE_PHASE_2,
    _RIPPLE_PHASE_3,
    DAY_S,
    YEAR_S,
    ToyLoadConfig,
    _ar1_block_moments,
    _cosine_terms,
    _fleet_block_means,
    _rng_for,
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


def oracle_simulate_block_means(config, block_s, n_blocks, start_time_s=0.0):
    m = block_s * 30.0
    if abs(m - round(m)) > 1e-9 or m < 1:
        raise ValueError("block_s must be a positive multiple of 1/30 s")
    m = int(round(m))
    starts = start_time_s + block_s * np.arange(n_blocks)
    det_mean = _block_means_of_terms(_cosine_terms(config), starts, m, 1.0 / 30.0)

    sigma_e = config.noise_rel_std * math.sqrt(1.0 - config.ar_coeff**2)
    if sigma_e == 0.0:
        return config.base_mw * det_mean

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
    start_time_s = draw(
        st.just(0.0)
        | st.integers(0, 3 * 1_048_320).map(lambda k: 30.0 * k)  # on the desk grid
        | st.floats(0.0, 3 * YEAR_S)
    )
    return block_s, n_blocks, start_time_s


@settings(max_examples=150, deadline=None)
@given(fleet=st.lists(load_configs(), min_size=1, max_size=6), grid=block_grids())
@example(  # two industrial loads of different shapes behind a residential one
    fleet=[
        ToyLoadConfig.residential(seed=1, base_mw=10.0),
        ToyLoadConfig.industrial(seed=2, base_mw=20.0),
        replace(ToyLoadConfig.industrial(seed=3, base_mw=30.0), daily_ripple=0.2),
    ],
    grid=(30.0, 50, 0.0),
)
def test_fleet_equals_per_load_oracle(fleet, grid):
    block_s, n_blocks, start_time_s = grid
    got = _fleet_block_means(fleet, block_s, n_blocks, start_time_s)
    for config in fleet:
        want = oracle_simulate_block_means(config, block_s, n_blocks, start_time_s)
        np.testing.assert_array_equal(next(got), want)
    assert next(got, None) is None


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
