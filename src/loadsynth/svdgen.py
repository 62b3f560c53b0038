"""Year-scale generative model: prototypical patterns by singular value
decomposition, new profiles by sampling the coefficient distributions.

Decomposing the (profiles x 52 weeks) training matrix as L = U S Vt, the
rows of Vt are prototypical yearly patterns weighted by the singular
values; each training profile is a linear combination with coefficients
from the matching row of U.  Generation samples a fresh coefficient vector
from per-column Gaussians fitted to U and multiplies by S Vt, returning a
(count, 52) array; LoadProfile is only the training-input type.  One
model per load class; they share nothing.

With a dozen profiles per class nothing richer than independent per-column
Gaussians is statistically justified; the independence is a simplification.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LoadClass, LoadProfile
from .errors import InsufficientData, RankDeficientWarning

_WEEKS = 52
_CLAMP = 0.01


@dataclass
class SvdModel:
    load_class: LoadClass
    u: np.ndarray  # (n_profiles, r) training coefficients
    s: np.ndarray  # (r,) singular values
    vt: np.ndarray  # (r, 52) orthonormal pattern rows
    coeff_mu: np.ndarray  # (r,) per-column coefficient mean
    coeff_sigma: np.ndarray  # (r,) per-column coefficient std

    @property
    def rank(self) -> int:
        return int(self.s.size)

    @property
    def patterns(self) -> np.ndarray:
        """S Vt: the weighted patterns a coefficient vector multiplies."""
        return self.s[:, None] * self.vt


def fit_svd_model(L: np.ndarray, load_class: LoadClass) -> SvdModel:
    """Thin SVD of a (n_profiles x 52) matrix of mean-one year profiles.

    The full min(n, 52) rank is kept.  A numerically rank-deficient matrix
    (for example duplicate profiles) only warns.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[1] != _WEEKS:
        raise ValueError(f"training matrix must be (n, {_WEEKS}), got {L.shape}")
    if L.shape[0] < 2:
        raise InsufficientData(f"need at least two {load_class.value} year profiles, got {len(L)}")
    row_means = L.mean(axis=1)
    if np.any(np.abs(row_means - 1.0) > 1e-9):
        raise ValueError("every training profile must be mean-one normalized")

    u, s, vt = np.linalg.svd(L, full_matrices=False)
    if s.size and s[-1] < 1e-12 * s[0]:
        warnings.warn(
            f"training matrix for {load_class.value} is numerically rank "
            f"deficient (smallest singular value {s[-1]:.3e})",
            RankDeficientWarning,
        )
    mu = u.mean(axis=0)
    sigma = u.std(axis=0, ddof=1)
    return SvdModel(load_class=load_class, u=u, s=s, vt=vt, coeff_mu=mu, coeff_sigma=sigma)


def fit_svd_model_from_profiles(
    profiles: Sequence[LoadProfile], load_class: LoadClass
) -> SvdModel:
    rows = [p.samples for p in profiles if p.load_class is load_class]
    return fit_svd_model(np.asarray(rows).reshape(len(rows), _WEEKS), load_class)


def svd_generate(model: SvdModel, count: int, seed: int) -> np.ndarray:
    """Sample year profiles as one (count, 52) array; each row has mean 1.

    Values below 0.01 are floored before rescaling (Gaussian tails can dip
    negative; loads cannot).
    """
    r = model.rank
    coeffs = np.empty((count, r))
    for i in range(count):
        rng = np.random.default_rng((seed, i))
        coeffs[i] = model.coeff_mu + model.coeff_sigma * rng.standard_normal(r)

    raw = coeffs @ model.patterns
    raw = np.maximum(raw, _CLAMP)
    return raw / raw.mean(axis=1, keepdims=True)
