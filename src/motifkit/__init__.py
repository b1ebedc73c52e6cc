"""Toolkit for repeated-pattern discovery and evaluation in symbolic monophonic music.

The package covers the full experimental chain: ingesting symbolic music
(MIDI / CSV / pattern-interchange JSON), geometric pattern discovery
(SIA family), fusing several analyzers' outputs into a polling curve with
boundary extraction, boundary and recovery metrics, synthetic benchmark
generation with planted patterns, and a feature-based comparative
classification pipeline.
"""

from motifkit.core import (
    Point,
    PointSet,
    PatternOccurrence,
    PatternRecord,
    MonophonyViolation,
    ParseError,
    SchemaError,
    parse_midi,
    parse_points_csv,
    emit_points_csv,
    load_pattern_file,
    dump_pattern_json,
    to_time,
)
from motifkit.discovery import (
    Vector2,
    MTP,
    TEC,
    TecQuality,
    sia,
    siatec,
    cosiatec,
    siatec_compress,
    siar,
    compactness,
    tec_quality,
    run_algorithm,
)
from motifkit.polling import (
    PollingCurve,
    PpParams,
    polling_curve,
    savgol_smooth,
    derivatives,
    extract_boundaries,
    train_pp,
)
from motifkit.evaluation import (
    PrfScore,
    RecoveryReport,
    boundary_prf,
    truth_boundaries,
    occurrence_recovery,
)
from motifkit.synthesis import (
    PatternTemplate,
    SynthConfig,
    SyntheticPiece,
    template_p1,
    template_p2,
    sample_random_segment,
    synthesize,
)
from motifkit.analysis import (
    FEATURE_NAMES,
    LabeledDataset,
    PcaModel,
    CvReport,
    ImportanceReport,
    sample_random_excerpts,
    extract_features,
    fit_scaler_pca,
    cross_validate,
    feature_importance,
)
from motifkit.classifiers import train_classifier

__version__ = "0.1.0"
