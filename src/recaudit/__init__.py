"""recaudit: audit a video platform's watch-next recommendations.

Crawl (or simulate) the watch-next graph from a snowballed seed-channel set,
score every recommended video with a multi-module conspiracy classifier, and
emit longitudinal trend, calibration, topic, and filter-bubble reports.
"""

__version__ = "0.1.0"

from .corpus import (
    ChannelRecord,
    Comment,
    Corpus,
    DailySnapshot,
    EdgeColumns,
    LabeledExample,
    VideoRecord,
    validate_corpus,
)
from .ensemble import TrainedEnsemble, classify_video, precision_recall, train_ensemble
from .metrics import (
    CalibrationCurve,
    FilterBubbleMatrix,
    TrendSeries,
    calibration_curve,
    clopper_pearson,
    filter_bubble_matrix,
    raw_frequency,
    rolling_mean,
    weighted_frequency,
)
from .sources import PlatformSpec, SimulatedPlatform, generate_platform

__all__ = [
    "__version__",
    "ChannelRecord",
    "Comment",
    "Corpus",
    "DailySnapshot",
    "EdgeColumns",
    "LabeledExample",
    "VideoRecord",
    "validate_corpus",
    "TrainedEnsemble",
    "classify_video",
    "precision_recall",
    "train_ensemble",
    "CalibrationCurve",
    "FilterBubbleMatrix",
    "TrendSeries",
    "calibration_curve",
    "clopper_pearson",
    "filter_bubble_matrix",
    "raw_frequency",
    "rolling_mean",
    "weighted_frequency",
    "PlatformSpec",
    "SimulatedPlatform",
    "generate_platform",
]
