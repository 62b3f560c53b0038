"""Streamed synthesis against the original one-shot synthesis.

``oracle_synthesize`` is the one-shot ``synthesize`` that the streamed one
replaced: it builds each load's whole driving series (``_driving_series``)
and downsamples it into one array, and its generator forwards each request
in slices of 512 rows counted from row 0 (``oracle_gan_generate``).  Both
are kept here as they were, apart from their names and the module prefix
of what they call, as the reference: for every request the streamed blocks
must hold the same floats.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsynth import compose
from loadsynth.compose import GenerationRequest, synthesize
from loadsynth.core import (
    LEVEL_SPECS,
    Level,
    Metric,
    Season,
    downsample,
    noise_rows,
    parse_resolution,
    sub_seed,
)
from loadsynth.errors import DegenerateProfile
from loadsynth.neural.gan import encode_labels, row_pieces


def oracle_gan_generate(model, count, seed, labels=None):
    spec = LEVEL_SPECS[model.level]

    z = noise_rows(seed, count, model.noise_dim)
    if model.conditional:
        z = np.hstack([z, encode_labels(labels)])
    outputs = np.empty((count, spec.profile_length))
    for lo in range(0, count, 512):
        hi = min(lo + 512, count)
        outputs[lo:hi] = model.generator.forward(z[lo:hi])
    outputs = spec.centre + (outputs - spec.centre) * model.amplitude_scale

    if spec.centre:
        outputs = np.maximum(outputs, 0.0)
    means = outputs.mean(axis=1, keepdims=True)
    outputs = outputs / means if spec.centre else outputs - means
    if not np.all(np.isfinite(outputs)):
        raise DegenerateProfile(
            f"level {model.level.value} generator produced non-finite samples"
        )
    return outputs


def oracle_driving_series(request, models, load_index, needed, driving):
    load_class = request.load_class_of(load_index)
    plen = LEVEL_SPECS[driving].profile_length
    span = needed
    if request.season is not None and driving is not Level.L4:
        span = max(needed, plen)
    needed_time = span * LEVEL_SPECS[driving].sampling_period_s
    weeks_total, extend_last = compose._extension_weeks(needed_time)
    plan = compose._plan_weeks(request, weeks_total, load_index)

    if request.season is None or weeks_total > 1:
        l4_values = compose._l4_week_values(
            request, models, load_class, load_index, plan, extend_last
        )
    else:
        l4_values = np.ones(weeks_total)

    if driving is Level.L4:
        return l4_values[:weeks_total]

    labels = [(load_class, season) for _, _, season in plan]
    week_profiles = oracle_gan_generate(
        models.l3, weeks_total, seed=sub_seed(request.seed, load_index, 3), labels=labels
    )
    hourly = compose.scale_to_parent(week_profiles, l4_values).ravel()
    week_len = LEVEL_SPECS[Level.L3].profile_length
    seams = [week_len * (k + 1) - 1 for k in range(weeks_total - 1)]
    if seams:
        hourly = compose.apply_seam_filter(hourly, seams, models.seam)

    if driving is Level.L3:
        return hourly

    needed_halfmin = span
    if driving is Level.L1:
        needed_halfmin = int(math.ceil(span / LEVEL_SPECS[Level.L1].profile_length))
    n_hours = int(math.ceil(needed_halfmin / LEVEL_SPECS[Level.L2].profile_length))
    hour_profiles = oracle_gan_generate(
        models.l2, n_hours, seed=sub_seed(request.seed, load_index, 2)
    )
    h = np.arange(n_hours)
    window = np.clip(h - 2, 0, hourly.size - 5)[:, None] + np.arange(5)
    halfmin = compose.add_hour_trend(
        hour_profiles * hourly[:n_hours, None], hourly[window], window - h[:, None]
    ).ravel()

    if driving is Level.L2:
        return halfmin

    tick_profiles = oracle_gan_generate(
        models.l1, needed_halfmin, seed=sub_seed(request.seed, load_index, 1)
    )
    return (tick_profiles * halfmin[:needed_halfmin, None]).ravel()


def oracle_synthesize(request, models):
    request.validate()
    driving, factor = compose.driving_level(request.resolution)
    rows = request.rows
    needed = rows * factor
    plen = LEVEL_SPECS[driving].profile_length

    out = np.empty((request.n_loads, rows))
    for load_index in range(request.n_loads):
        series = oracle_driving_series(request, models, load_index, needed, driving)
        offset = 0
        if request.season is not None and needed < plen and series.size > needed:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(request.seed, load_index, 9))
            )
            offset = int(rng.integers(0, min(plen, series.size) - needed + 1))
        sliced = series[offset : offset + needed]
        out[load_index] = downsample(sliced, factor, request.aggregation) * request.base_mw
    times = np.arange(rows) * request.resolution.effective_period_s
    return times, out


# aggregation factors 1, 3, 7 and 10 over the 30 Hz ticks
RESOLUTIONS = ["30/s", "10/s", "30/7s", "3/s"]


@st.composite
def streamed_requests(draw):
    """A 30 Hz-driven request of up to 10 min, and a chunk of 2-3 profiles."""
    resolution = parse_resolution(draw(st.sampled_from(RESOLUTIONS)))
    n_loads = draw(st.integers(1, 3))
    n_residential = draw(st.integers(0, n_loads))
    period = resolution.effective_period_s
    # from one row (under a second) to 10 min: under 30 s an explicit season
    # slices its one profile from a seeded offset
    rows = draw(st.integers(1, int(600 / period)) | st.integers(1, int(30 / period)))
    return (
        GenerationRequest(
            n_residential,
            n_loads - n_residential,
            resolution,
            rows * period,
            season=draw(st.none() | st.sampled_from(Season)),
            aggregation=draw(st.sampled_from(Metric)),
            base_mw=draw(st.sampled_from([1.0, 37.5])),
            seed=draw(st.integers(0, 2**31)),
        ),
        draw(st.integers(2, 3)),
    )


@settings(max_examples=40, deadline=None)
@given(case=streamed_requests())
def test_streamed_blocks_equal_the_one_shot_series(tiny_models, case):
    request, chunk = case
    want_times, want = oracle_synthesize(request, tiny_models)
    with mock.patch.object(compose, "_CHUNK_PROFILES", chunk):
        times, series = synthesize(request, tiny_models)
        blocks = list(series)
    assert series.shape == want.shape
    assert all(block.shape[0] == want.shape[0] and block.shape[1] > 0 for block in blocks)
    assert np.concatenate(blocks, axis=1).tobytes() == want.tobytes()
    assert np.asarray(times).tobytes() == want_times.tobytes()
    # one block per chunk
    n_profiles = math.ceil(request.rows * compose.driving_level(request.resolution)[1] / 900)
    assert len(blocks) == len(row_pieces(0, n_profiles, chunk))


def test_other_driving_levels_are_one_block(tiny_models):
    for text, length in (("1/30s", 86_400.0), ("1/h", 3 * 86_400.0), ("1/wk", 8 * 604_800.0)):
        request = GenerationRequest(1, 1, parse_resolution(text), length, seed=5)
        times, series = synthesize(request, tiny_models)
        (block,) = list(series)
        assert block.tobytes() == oracle_synthesize(request, tiny_models)[1].tobytes()


def test_streamed_peak_does_not_grow_with_duration(tiny_models):
    # 40 min and 2 h at 30/s: 80 and 240 level-1 profiles, in 64-profile
    # chunks; the peak is one chunk's, whatever the duration
    def peak(length_s):
        request = GenerationRequest(1, 0, parse_resolution("30/s"), length_s, seed=3)
        tracemalloc.start()
        try:
            for _ in synthesize(request, tiny_models)[1]:
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2400.0), peak(7200.0)
    assert long < 1.1 * short, (short / 2**20, long / 2**20)


def test_array_refuses_blocks_already_taken(tiny_models):
    request = GenerationRequest(1, 0, parse_resolution("30/s"), 180.0, seed=3)
    with mock.patch.object(compose, "_CHUNK_PROFILES", 2):
        times, series = synthesize(request, tiny_models)
        next(iter(series))
        with pytest.raises(ValueError, match="taken already"):
            series.array()
