"""Training loop, per-epoch threshold sweeps, and final binarization.

There is one training loop: the plain binarizer (SAE) is fitted on the labeled
source alone, and Bin-DANN is the same loop with an unlabeled target stream
added, which feeds the domain branch behind the gradient-reversal layer.
Training is bit-reproducible for a fixed (config, seed, dataset): batch
sampling, weight init, and dropout all draw from dedicated seed streams, and
dropout streams are derived per (epoch, step, pass) so the target pass never
perturbs the draws seen by the shared trunk. With the reversal coefficient
pinned to zero, Bin-DANN therefore reproduces the SAE's trunk parameter
trajectory bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import CheckpointError, adam, backward, forward, optimizer_step
from .data import (VALIDATION_FRACTION, DataError, Dataset, check_validation_fraction,
                   gather_patches, unit_floats)
from .layers import grl_lambda_at
from .metrics import Confusion, confusion, f1
from .models import (
    Model,
    SaeConfig,
    build_bindann,
    build_sae,
    load_model,
    predict_prob_map,
    save_model,
)

__all__ = [
    "ExperimentConfig",
    "EpochStats",
    "TrainedBinarizer",
    "binarize",
    "sweep_threshold",
    "train_sae",
    "train_bindann",
    "history_csv",
    "save_binarizer",
    "load_binarizer",
]

_SEED_INIT = 201
_SEED_SRC = 202
_SEED_TGT = 203
_SEED_DROP = 204


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment, each with its one default.

    Construction checks every setting's type, storing a float setting given
    as an int as a float, then the training settings, the validation fraction,
    the model they build and the gate's bin width and threshold, so a bad value
    fails before any data is read.
    """

    source_dir: str = ""
    target_dir: str = ""
    out_dir: str = ""
    patch_h: int = 32
    patch_w: int = 32
    depth: int = 3
    filters: int = 8
    dropout: float = 0.2
    epochs: int = 60
    batch: int = 16
    seed: int = 0
    lr: float = 1e-3
    lambda0: float = 0.1
    lambda_inc: float = 0.01
    h_prec: float = 0.1
    rho_th: float = 0.25
    sweep_step: float = 0.05
    validation_fraction: float = VALIDATION_FRACTION

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # exactly int: a float fails deep in training, a bool enters the manifest
            if f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} {value!r} is not an integer")
            if f.type == "str" and not isinstance(value, str):
                raise ValueError(f"{f.name} {value!r} is not a string")
            if f.type == "float":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"{f.name} {value!r} is not a number")
                object.__setattr__(self, f.name, float(value))  # lr=1 and lr=1.0: one experiment
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"learning rate {self.lr} must be finite and positive")
        last = grl_lambda_at(self.epochs - 1, self.lambda0, self.lambda_inc)
        if not (0.0 <= self.lambda0 and 0.0 <= self.lambda_inc and last < math.inf):
            raise ValueError("reversal coefficient schedule must be non-negative and "
                             f"finite through epoch {self.epochs - 1}")
        _sweep_grid(self.sweep_step)
        _bin_count(self.h_prec)
        if not -1.0 <= self.rho_th <= 1.0:
            raise ValueError(f"gate threshold {self.rho_th} outside [-1, 1]")
        check_validation_fraction(self.validation_fraction)
        self.sae_config()

    def sae_config(self) -> SaeConfig:
        """The model that the depth, filters, dropout and patch settings describe."""
        return SaeConfig(depth=self.depth, filters=self.filters, dropout_rate=self.dropout,
                         patch=(self.patch_h, self.patch_w))

    def as_dict(self):
        # out_dir is where artifacts land, not part of the experiment identity
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}

    def canonical_text(self):
        return "".join(f"{k}={v}\n" for k, v in sorted(self.as_dict().items()))


@dataclass
class EpochStats:
    epoch: int
    bin_loss: float
    domain_loss: float | None
    lam: float | None
    val_f1: float
    th_s: float


@dataclass
class TrainedBinarizer:
    """Best-epoch model plus its swept threshold and the training history."""

    model: Model
    th_s: float
    history: list


def binarize(prob_map, th) -> np.ndarray:
    """Boolean mask: probability >= threshold counts as foreground."""
    if not 0.0 < th < 1.0:
        raise ValueError(f"threshold {th} outside (0, 1)")
    return np.asarray(prob_map) >= th


def _bin_count(h_prec):
    """The number of histogram bins of width ``h_prec``, which must divide 1."""
    if not 0.0 < h_prec <= 1.0:
        raise ValueError(f"bin width {h_prec} outside (0, 1]")
    n = 1.0 / h_prec
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"bin width {h_prec} does not divide 1 into whole bins")
    return int(round(n))


def _sweep_grid(step):
    if not 0.0 < step < 1.0:
        raise ValueError(f"sweep step {step} outside (0, 1)")
    n = round(1.0 / step)
    if n < 2:
        raise ValueError(f"sweep step {step} leaves no interior thresholds")
    return [i * step for i in range(1, n)]


def sweep_threshold(prob_maps, validation, sweep_step):
    """Best equidistant threshold for the probability maps of labeled
    validation records, one map per record in the same order.

    Each map adds its confusions into one integer total per candidate
    threshold, so maps are read one at a time and a generator keeps one page's
    map in memory. Ties resolve to the lowest threshold. Returns (threshold,
    F1 at it).
    """
    if not validation:
        raise ValueError("validation set is empty")
    for rec in validation:
        if rec.gt is None:
            raise ValueError(f"validation page {rec.stem!r} has no ground truth")
    grid = _sweep_grid(sweep_step)
    totals = [Confusion()] * len(grid)
    for prob, rec in zip(prob_maps, validation, strict=True):
        totals = [total + confusion(prob >= th, rec.gt) for total, th in zip(totals, grid)]
    scores = [f1(total) for total in totals]
    best = scores.index(max(scores))  # the first of equal scores
    return grid[best], scores[best]


def _addresses(pages, patch):
    """The (page, patch) numbers of every patch of ``pages``, page by page: what the sampler draws."""
    return np.array([(p, k) for p, page in enumerate(pages) for k in
                     range(math.ceil(page.shape[0] / patch[0]) * math.ceil(page.shape[1] / patch[1]))])


def _cut(collections, at, patch):
    """One [n, 1, h, w] batch per collection of the patches ``at`` names, each (page, patch)
    row naming the same page of every collection, as the lists of levels and of labels do.
    Each page's rows are cut with one gather per collection, grouped by a set: ``np.unique``
    would import ``numpy.ma``. A batch takes the dtype its pages' patches concatenate to."""
    used = set(at[:, 0].tolist())
    batches = [np.empty((len(at), 1, *patch), np.result_type(*(pages[p] for p in used)))
               for pages in collections]
    for p in used:
        rows = np.flatnonzero(at[:, 0] == p)
        for batch, pages in zip(batches, collections):
            batch[rows, 0] = gather_patches(pages[p], *patch, at[rows, 1])
    return batches


def _stream(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def _fit(source: Dataset, target: Dataset | None, cfg: ExperimentConfig) -> TrainedBinarizer:
    """Fit on the labeled source, plus an unlabeled target stream when given,
    and keep the epoch with the best source validation F1 at its swept
    threshold.

    Without a target this trains the plain binarizer. With one, the model
    gains the domain branch and every step adds a target forward/backward pass
    on ``domain_loss``, whose gradients are summed with the source pass's
    before the one optimizer step. The domain BCE targets all-zero maps for
    source and all-one maps for target patches. Each training forward's record
    goes to its backward, so the model keeps none once the fit returns or raises.
    """
    train, val = source.train(), source.validation()
    if not train or not val:
        raise DataError("source needs at least one train and one validation page")
    if target is not None and not target.records:
        raise DataError("target dataset is empty")

    sae = cfg.sae_config()
    init = _stream(_SEED_INIT, cfg.seed)
    if target is None:
        model = build_sae(sae, init)
        wanted = ("loss", "bin_loss")
    else:
        model = build_bindann(sae, init)
        wanted = ("loss", "bin_loss", "domain_loss")
        t_pages = [r.page for r in target.records]
        t_at = _addresses(t_pages, sae.patch)
        t_sampler = _stream(_SEED_TGT, cfg.seed)
        src_domain = np.zeros((cfg.batch, 1, *sae.patch))
        tgt_domain = np.ones_like(src_domain)
    opt = adam(cfg.lr)
    pages = ([r.page for r in train], [r.gt for r in train])  # levels and labels
    at = _addresses(pages[0], sae.patch)
    sampler = _stream(_SEED_SRC, cfg.seed)
    steps = math.ceil(len(at) / cfg.batch)

    history, best = [], None
    for epoch in range(cfg.epochs):
        lam = None
        if target is not None:
            lam = grl_lambda_at(epoch, cfg.lambda0, cfg.lambda_inc)
            model.set_grl(lam)
        bin_losses, dom_losses = [], []
        for step in range(steps):
            # dropout draws per (epoch, step, pass): the target pass never
            # shifts the source pass's masks
            x, gt = _cut(pages, at[sampler.integers(0, len(at), size=cfg.batch)], sae.patch)
            bindings = {"x": unit_floats(x), "gt": gt}
            if target is not None:
                bindings["domain_gt"] = src_domain
            out = forward(model.graph, bindings, wanted=wanted, training=True,
                          rng=_stream(_SEED_DROP, cfg.seed, epoch, step, 0))
            grads = backward(model.graph, "loss")
            bin_losses.append(float(out["bin_loss"][0]))

            if target is not None:
                [x_t] = _cut([t_pages], t_at[t_sampler.integers(0, len(t_at), size=cfg.batch)], sae.patch)
                out_t = forward(model.graph, {"x": unit_floats(x_t), "domain_gt": tgt_domain},
                                wanted=("domain_loss",), training=True,
                                rng=_stream(_SEED_DROP, cfg.seed, epoch, step, 1))
                for name, g in backward(model.graph, "domain_loss").items():
                    grads[name] = grads[name] + g if name in grads else g
                dom_losses.append(0.5 * float(out["domain_loss"][0] + out_t["domain_loss"][0]))
            optimizer_step(opt, model.params, grads)
        th, score = sweep_threshold((predict_prob_map(model, rec.page) for rec in val),
                                    val, cfg.sweep_step)
        dom_loss = float(np.mean(dom_losses)) if target is not None else None
        history.append(EpochStats(epoch, float(np.mean(bin_losses)), dom_loss, lam, score, th))
        if best is None or score > best[0]:
            best = (score, th, {name: p.copy() for name, p in model.params.items()})

    model.params.update(best[2])
    return TrainedBinarizer(model=model, th_s=best[1], history=history)


def train_sae(source: Dataset, cfg: ExperimentConfig) -> TrainedBinarizer:
    """Fit the plain binarizer on the labeled source and keep the epoch
    checkpoint with the best validation F1 (at its swept threshold)."""
    return _fit(source, None, cfg)


def train_bindann(source: Dataset, target: Dataset, cfg: ExperimentConfig) -> TrainedBinarizer:
    """Adversarial fit: the plain trainer plus an unlabeled target batch per
    step feeding the gradient-reversal domain branch. Binarization BCE is
    computed on the source only, and the returned threshold comes from the
    source validation sweep."""
    return _fit(source, target, cfg)


def history_csv(history) -> str:
    lines = ["epoch,bin_loss,domain_loss,lambda,val_f1,th_s"]
    for row in history:
        cells = [
            str(row.epoch),
            repr(row.bin_loss),
            "" if row.domain_loss is None else repr(row.domain_loss),
            "" if row.lam is None else repr(row.lam),
            repr(row.val_f1),
            repr(row.th_s),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_binarizer(path, tb: TrainedBinarizer):
    save_model(path, tb.model, extra={"th_s": tb.th_s})


def load_binarizer(path) -> TrainedBinarizer:
    model, extra = load_model(path)
    th = extra.get("th_s")
    if not isinstance(th, float) or not 0.0 < th < 1.0:
        raise CheckpointError(f"checkpoint {path} stores no threshold in (0, 1)")
    return TrainedBinarizer(model=model, th_s=th, history=[])
