"""Repetition-figure statistics, urn models, and Bayesian log-odds scoring.

The pipeline: census repeat statistics from a plaintext corpus laid out on a
circle, turn the card counts into a generative urn model of repetition
figures, derive evidence weights against the flat-random null, and score
candidate alignments of enciphered message pairs as log-odds of being right.
A Monte Carlo laboratory checks that the resulting posteriors are calibrated
against labeled synthetic traffic.
"""

from .corpus import (
    CircularCorpus,
    RepeatStatistics,
    actual_counts,
    apparent_counts,
    build_corpus,
    card_counts,
    compute_statistics,
)
from .errors import (
    EmptyComparisonError,
    FigureParseError,
    ModelError,
    NormalizationError,
    RepfitError,
    ValidationError,
)
from .figures import (
    RepetitionFigure,
    figure_from_comparison,
    parse_figure,
    run_spectrum,
)
from .scoring import (
    FitScore,
    ScoreWeights,
    odds_of_fit,
    right_relevant_proportion,
    weights,
    wrong_relevant_proportion,
)
from .simlab import (
    ExperimentConfig,
    ExperimentReport,
    LanguageModel,
    calibration_experiment,
    generate_traffic,
)
from .urn import (
    UrnModel,
    exact_completion_probability,
    hatted_urn,
    sample_figures,
    urn_from_stats,
)

__version__ = "0.1.0"

__all__ = [
    "CircularCorpus",
    "EmptyComparisonError",
    "ExperimentConfig",
    "ExperimentReport",
    "FigureParseError",
    "FitScore",
    "LanguageModel",
    "ModelError",
    "NormalizationError",
    "RepetitionFigure",
    "RepeatStatistics",
    "RepfitError",
    "ScoreWeights",
    "UrnModel",
    "ValidationError",
    "actual_counts",
    "apparent_counts",
    "build_corpus",
    "calibration_experiment",
    "card_counts",
    "compute_statistics",
    "exact_completion_probability",
    "figure_from_comparison",
    "generate_traffic",
    "hatted_urn",
    "odds_of_fit",
    "parse_figure",
    "right_relevant_proportion",
    "run_spectrum",
    "sample_figures",
    "urn_from_stats",
    "weights",
    "wrong_relevant_proportion",
]
