"""ECG heartbeat classification toolkit.

Reads MIT-BIH style WFDB records, segments and normalizes heartbeats,
balances minority classes with a per-class GAN, trains four 1D deep
architectures on a small numpy autodiff kernel, fuses them into ensembles,
and writes evaluation reports with saliency maps.
"""

__version__ = "0.1.0"

from .errors import (
    AugmentError,
    ConfigError,
    EcgkitError,
    FormatError,
    IoError,
    MetricError,
    NumericalError,
    ParseError,
    ShapeError,
    SplitError,
    UsageError,
)

from .beats import (
    CLASS_NAMES,
    DEFAULT_BEAT_LEN,
    BeatDataset,
    load_records_dir,
    read_beats_csv,
    segment_beats,
    stratified_split,
    write_beats_csv,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    PipelineConfig,
    RunManifest,
    config_hash,
    derive_seed,
    load_config,
)
from .ensemble import (
    EnsembleSpec,
    ManifestEntry,
    build_strategy,
    fuse,
    load_manifest,
    predict_classes,
    write_manifest,
)
from .gan import (
    DiscriminatorNet,
    GanTrainConfig,
    GeneratorNet,
    balance_dataset,
    gan_train,
    synthesize,
)
from .gradcam import SaliencyMap, grad_cam
from .metrics import (
    ConfidenceInterval,
    ConfusionMatrix,
    MetricBundle,
    RocCurve,
    block_macro_f1,
    bootstrap_ci,
    confusion,
    evaluate_predictions,
    one_vs_rest_auc,
    prf1,
    roc_auc,
)
from .models import Model, ModelDescriptor, build
from .report import render_report
from .training import (
    AdamW,
    EpochRecord,
    TrainingHistory,
    TrainRunConfig,
    focal_loss,
    train,
)
from .cli import main, run

__all__ = [
    "AdamW",
    "AugmentError",
    "BeatDataset",
    "CLASS_NAMES",
    "ConfidenceInterval",
    "ConfigError",
    "ConfusionMatrix",
    "DEFAULT_BEAT_LEN",
    "DiscriminatorNet",
    "EcgkitError",
    "EnsembleSpec",
    "EpochRecord",
    "FormatError",
    "GanTrainConfig",
    "GeneratorNet",
    "IoError",
    "ManifestEntry",
    "MetricBundle",
    "MetricError",
    "Model",
    "ModelDescriptor",
    "NumericalError",
    "ParseError",
    "PipelineConfig",
    "RocCurve",
    "RunManifest",
    "SaliencyMap",
    "ShapeError",
    "SplitError",
    "TrainRunConfig",
    "TrainingHistory",
    "UsageError",
    "__version__",
    "balance_dataset",
    "block_macro_f1",
    "bootstrap_ci",
    "build",
    "build_strategy",
    "config_hash",
    "confusion",
    "derive_seed",
    "evaluate_predictions",
    "focal_loss",
    "fuse",
    "gan_train",
    "grad_cam",
    "load_checkpoint",
    "load_config",
    "load_manifest",
    "load_records_dir",
    "main",
    "one_vs_rest_auc",
    "predict_classes",
    "prf1",
    "read_beats_csv",
    "render_report",
    "roc_auc",
    "run",
    "save_checkpoint",
    "segment_beats",
    "stratified_split",
    "synthesize",
    "train",
    "write_beats_csv",
    "write_manifest",
]
