"""Unsupervised domain-adaptive document image binarization.

An encoder-decoder binarizer, its adversarial domain-adaptation variant built
on a gradient-reversal layer, and a probability-histogram correlation gate
that decides per target domain whether adaptation is worth applying.
"""

__version__ = "0.1.0"

from .autodiff import (
    Graph,
    GraphError,
    NumericError,
    adam,
    backward,
    forward,
    grad_check,
    optimizer_step,
)
from .data import (
    DataError,
    Dataset,
    Page,
    PgmError,
    assemble,
    load_dataset,
    make_synthetic_domains,
    read_pgm,
    split_patches,
    write_pgm,
)
from .layers import ConvSpec, grl_lambda_at
from .metrics import Confusion, confusion, f1, precision, recall
from .models import (
    CheckpointError,
    Model,
    SaeConfig,
    TrainedBinarizer,
    build_bindann,
    build_sae,
    load_binarizer,
    predict_prob_map,
    read_checkpoint,
    save_binarizer,
    write_checkpoint,
)
from .similarity import (
    USE_DA,
    USE_SAE,
    DegenerateHistogramError,
    SimilarityReport,
    autobindann,
    compare_histograms,
    domain_histogram,
    gate,
    gate_decision,
    hist_intersection,
    js_divergence,
    kl_divergence,
    pearson,
)
from .training import (
    ExperimentConfig,
    binarize,
    sweep_threshold,
    train_bindann,
    train_sae,
)
