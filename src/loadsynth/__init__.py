"""loadsynth: multi-level generative modelling of bus-level electrical load.

Trains one generative model per aggregation level (adversarial models for
the 30-second, hourly, and weekly scales; a pattern-decomposition model
for the yearly scale) and composes their output into load series of any
duration at any sampling resolution from 30 samples/second down to
1 sample/year.
"""

from .compose import (
    GenerationRequest,
    ModelSet,
    SeamFilter,
    add_hour_trend,
    apply_seam_filter,
    learn_seam_filter,
    scale_to_parent,
    synthesize,
)
from .core import (
    LEVEL_SPECS,
    Level,
    LevelSpec,
    LoadClass,
    LoadProfile,
    Metric,
    Normalization,
    Resolution,
    Season,
    downsample,
    normalize_mean,
    parse_resolution,
    season_of_week,
)
from .ingest import (
    LevelDatasets,
    compute_bus_load,
    detrend_hour,
    extract_level_datasets,
    read_level_datasets,
    write_level_datasets,
)
from .modelio import ModelBundle
from .neural import (
    CGanModel,
    GanModel,
    HyperParams,
    gan_generate,
    train_cgan,
    train_gan,
)
from .svdgen import SvdModel, fit_svd_model, svd_generate
from .toydata import ToyLoadConfig, desk_level_datasets, simulate_ground_truth
from .validate import (
    ForecastReport,
    SeamStats,
    ar_forecast_eval,
    psd,
    seam_stats,
    wasserstein_1d,
)

__version__ = "0.1.0"
