"""Shared fixtures: tiny trained models for pipeline tests.

The tiny model set trains in seconds and is NOT statistically converged;
pipeline tests assert mechanics (shapes, scaling, determinism, counters),
not fidelity.  No test checks fidelity yet.
"""

import numpy as np
import pytest

from loadsynth.compose import ModelSet, learn_seam_filter
from loadsynth.core import LoadClass
from loadsynth.neural.gan import HyperParams, train_gan
from loadsynth.svdgen import fit_svd_model
from loadsynth.toydata import ToyLoadConfig, desk_level_datasets


@pytest.fixture(scope="session")
def tiny_datasets():
    configs = [
        ToyLoadConfig.residential(seed=101, base_mw=40.0),
        ToyLoadConfig.industrial(seed=202, base_mw=90.0),
    ]
    return desk_level_datasets(
        configs, n_years=2, l1_windows_per_load=40, l2_profiles_per_load=60
    )


def year_rows(datasets, load_class):
    """The level-4 rows of one load class."""
    return datasets.l4.samples[[c is load_class for c in datasets.l4.load_class]]


@pytest.fixture(scope="session")
def tiny_models(tiny_datasets):
    ds = tiny_datasets
    hyper = HyperParams(epochs=2, batch_size=8, noise_dim=100, trace_samples=100)
    return ModelSet(
        l1=train_gan(ds.l1, hyper, seed=1),
        l2=train_gan(ds.l2, hyper, seed=2),
        l3=train_gan(ds.l3, hyper=hyper, seed=3),
        l4_residential=fit_svd_model(year_rows(ds, LoadClass.MAINLY_RESIDENTIAL), LoadClass.MAINLY_RESIDENTIAL),
        l4_industrial=fit_svd_model(year_rows(ds, LoadClass.MAINLY_INDUSTRIAL), LoadClass.MAINLY_INDUSTRIAL),
        seam=learn_seam_filter(ds.l3.samples),
    )
