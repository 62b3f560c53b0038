"""Statistical fidelity metrics: distribution distance, spectra, seams, transfer.

The distribution metric compares pooled amplitudes: all time points of all
profiles in a set form one empirical distribution.  Two estimators are
provided: the exact quantile-integral form (the public value) and a
100-bin histogram form that mirrors how the distance is traced during
adversarial training; the two agree to within a bin width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SECONDS_PER_WEEK
from .errors import InsufficientData


def wasserstein_1d(a, b) -> float:
    """Exact first Wasserstein distance between two empirical distributions.

    Integral of |CDF_a - CDF_b| over the merged sample support.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("wasserstein_1d needs non-empty sample sets")
    values = np.sort(np.concatenate([a, b]))
    deltas = np.diff(values)
    cdf_a = np.searchsorted(a, values[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, values[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


HISTOGRAM_BINS = 100


def wasserstein_histogram(a, b) -> float:
    """Histogram estimate of the distance over the joint sample range.

    Both sets are binned into HISTOGRAM_BINS equal cells spanning their
    combined range; the distance is the CDF-difference integral of the two
    binned distributions.  Retained to mirror the training-time trace.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("wasserstein_histogram needs non-empty sample sets")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return 0.0
    ha, _ = np.histogram(a, bins=HISTOGRAM_BINS, range=(lo, hi))
    hb, _ = np.histogram(b, bins=HISTOGRAM_BINS, range=(lo, hi))
    width = (hi - lo) / HISTOGRAM_BINS
    cdf_a = np.cumsum(ha) / a.size
    cdf_b = np.cumsum(hb) / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b)) * width)


def psd(profiles, sampling_period_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean one-sided periodogram of a (count, length) profile array.

    Per profile: squared magnitude of the DFT, normalized by length and
    sampling rate, frequencies 0..Nyquist; non-edge bins doubled so the
    density integrates to the mean squared signal value.  Averaged across
    profiles.
    """
    profiles = np.asarray(profiles, dtype=np.float64)
    if profiles.size == 0:
        raise ValueError("psd needs at least one profile")
    n = profiles.shape[1]
    fs = 1.0 / sampling_period_s
    freqs = np.fft.rfftfreq(n, d=sampling_period_s)
    spec = np.abs(np.fft.rfft(profiles, axis=1)) ** 2 / (n * fs)
    spec[:, 1:] *= 2.0
    if n % 2 == 0:
        spec[:, -1] /= 2.0  # Nyquist bin appears once
    return freqs, spec.sum(axis=0) / profiles.shape[0]


@dataclass(frozen=True)
class SeamStats:
    """Mean/std of the percentage step across profile junctions."""

    mean_pct: float
    std_pct: float
    n_seams: int

    def __post_init__(self):
        if self.n_seams < 1:
            raise ValueError("seam statistics need at least one seam")
        if not (np.isfinite(self.mean_pct) and np.isfinite(self.std_pct)):
            raise ValueError("seam statistics must be finite")
        if self.mean_pct < 0 or self.std_pct < 0:
            raise ValueError("seam statistics must be nonnegative")


def seam_stats(series, seam_indices) -> SeamStats:
    """Percentage difference across each seam: 100*|x[j+1]-x[j]|/x[j].

    ``seam_indices`` holds the last index of each leading profile.
    """
    series = np.asarray(series, dtype=np.float64)
    idx = np.sort(np.asarray(sorted(seam_indices), dtype=np.int64))
    if idx.size == 0:
        raise ValueError("no seam indices given")
    if idx[0] < 0 or idx[-1] + 1 >= series.size:
        raise IndexError("seam index out of range")
    x0 = series[idx]
    x1 = series[idx + 1]
    if np.any(x0 <= 0):
        raise ValueError("seam statistics need positive values at the seams")
    diffs = 100.0 * np.abs(x1 - x0) / x0
    return SeamStats(float(diffs.mean()), float(diffs.std()), int(idx.size))


@dataclass(frozen=True)
class ForecastReport:
    """Absolute-percentage-error summary of a train-on-A test-on-B run."""

    train_source: str
    test_source: str
    mean_ape_pct: float
    std_ape_pct: float
    n_predictions: int  # >= 100: ar_forecast_eval refuses fewer


def _ar_design(series: np.ndarray, lags: int) -> tuple[np.ndarray, np.ndarray]:
    windows = np.lib.stride_tricks.sliding_window_view(series, lags + 1)
    return windows[:, :lags], windows[:, lags]


def ar_forecast_eval(
    train: Sequence[np.ndarray],
    test: Sequence[np.ndarray],
    lags: int = 36,
    ridge: float = 1e-6,
    train_source: str = "train",
    test_source: str = "test",
) -> ForecastReport:
    """Fit a ridge-regularized linear autoregression and report transfer error.

    The model predicts the next value from the previous ``lags`` samples
    (36 at 1 sample/10 min = six hours of context).  Error is the absolute
    percentage difference between prediction and actual on the test set.
    Kept, and exported, as ROADMAP item 1's planned transfer check (the fidelity gate).
    """
    xs, ys = [], []
    for s in train:
        s = np.asarray(s, dtype=np.float64)
        if s.size <= lags + 1:
            raise ValueError(f"training series of length {s.size} cannot support {lags} lags")
        x, y = _ar_design(s, lags)
        xs.append(x)
        ys.append(y)
    X = np.vstack(xs)
    y = np.concatenate(ys)
    X = np.hstack([X, np.ones((X.shape[0], 1))])
    gram = X.T @ X + ridge * np.eye(X.shape[1])
    w = np.linalg.solve(gram, X.T @ y)

    apes = []
    for s in test:
        s = np.asarray(s, dtype=np.float64)
        if s.size <= lags + 1:
            raise ValueError(f"test series of length {s.size} cannot support {lags} lags")
        x, target = _ar_design(s, lags)
        pred = np.hstack([x, np.ones((x.shape[0], 1))]) @ w
        denom = np.maximum(np.abs(target), 1e-12)
        apes.append(100.0 * np.abs(pred - target) / denom)
    ape = np.concatenate(apes)
    if ape.size < 100:
        raise InsufficientData(
            f"only {ape.size} test predictions; the report needs >= 100"
        )
    return ForecastReport(
        train_source=train_source,
        test_source=test_source,
        mean_ape_pct=float(ape.mean()),
        std_ape_pct=float(ape.std()),
        n_predictions=int(ape.size),
    )


def hold_weekly_series(
    weekly_values: np.ndarray, effective_period_s: float, n_samples: int
) -> np.ndarray:
    """Zero-order-hold extension of weekly values onto a finer grid.

    The naive way to push the year-scale pattern model down to fine
    resolutions: each week's value is held constant across the week.
    Kept as ROADMAP item 1's planned level-4 baseline (the fidelity gate).
    """
    per_week = SECONDS_PER_WEEK / effective_period_s
    if abs(per_week - round(per_week)) > 1e-9:
        raise ValueError("effective period must divide one week")
    out = np.repeat(np.asarray(weekly_values, dtype=np.float64), int(round(per_week)))
    if out.size < n_samples:
        raise ValueError("not enough weekly values for the requested sample count")
    return out[:n_samples]


def psd_to_csv(path, freqs: np.ndarray, density: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("frequency_hz,power_density\n")
        for f, d in zip(freqs, density):
            fh.write(f"{float(f)!r},{float(d)!r}\n")


def metrics_to_csv(path, rows: Sequence[tuple[str, str, float]]) -> None:
    """Rows of (metric, dataset, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,dataset,value\n")
        for metric, dataset, value in rows:
            fh.write(f"{metric},{dataset},{float(value)!r}\n")
