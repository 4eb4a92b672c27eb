"""Unsupervised domain-adaptive document image binarization.

An encoder-decoder binarizer, its adversarial domain-adaptation variant built
on a gradient-reversal layer, and a probability-histogram correlation gate
that decides per target domain whether adaptation is worth applying.
"""

__version__ = "0.1.0"

from .autodiff import (
    CheckpointError,
    Graph,
    GraphError,
    NumericError,
    adam,
    backward,
    forward,
    grad_check,
    optimizer_step,
    read_checkpoint,
    write_checkpoint,
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
    Model,
    SaeConfig,
    build_bindann,
    build_sae,
    load_model,
    predict_prob_map,
    save_model,
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
    TrainedBinarizer,
    binarize,
    load_binarizer,
    save_binarizer,
    sweep_threshold,
    train_bindann,
    train_sae,
)
