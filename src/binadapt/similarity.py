"""Domain similarity from probability-map histograms, and the gated driver.

``domain_histogram``, the one place a histogram is built, pools a domain's
probability maps into a float64 array of bin masses of width ``h_prec``.
``gate`` pools a trained binarizer's maps of both domains. The Pearson
correlation of the two histograms keeps the plain model (high correlation)
or calls for adversarial adaptation (at or below ``rho_th``); KL and
Jensen-Shannon divergences and histogram intersection are reported alongside.
``binadapt run`` reaches ``gate`` through ``autobindann``, which also trains
both models, and ``binadapt similarity`` calls it with a loaded checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, _row_blocks
from .models import predict_prob_map
from .training import (ExperimentConfig, TrainedBinarizer, _bin_count, binarize, train_bindann,
                       train_sae)

__all__ = [
    "USE_SAE",
    "USE_DA",
    "DegenerateHistogramError",
    "pearson",
    "kl_divergence",
    "js_divergence",
    "hist_intersection",
    "gate_decision",
    "SimilarityReport",
    "compare_histograms",
    "domain_histogram",
    "AutoRunResult",
    "gate",
    "autobindann",
]

USE_SAE = "UseSAE"
USE_DA = "UseDA"

_KL_SMOOTHING = 1e-10


class DegenerateHistogramError(ValueError):
    """A histogram with zero variance cannot be correlated."""


def domain_histogram(prob_maps, h_prec) -> np.ndarray:
    """Pool the pixels of any iterable of probability maps into one
    normalized histogram: a float64 array of ``1 / h_prec`` bin masses.

    Pixel p lands in bin floor(p / h_prec); p == 1.0 lands in the closed top
    bin. Values outside [0, 1] are contract violations. Maps are read one at a
    time and binned in row blocks of about ``data._BLOCK`` values, so a
    generator keeps one page's map in memory and a cropped map is not copied.
    """
    n = _bin_count(h_prec)
    counts = np.zeros(n)
    for prob in prob_maps:
        table = np.atleast_2d(prob)
        for rows in _row_blocks(table.shape):
            values = np.asarray(table[rows], dtype=np.float64)
            if values.size and not (0.0 <= values.min() and values.max() <= 1.0):  # NaN too
                raise ValueError("probability map has values outside [0, 1]")
            t = values / h_prec
            idx = np.minimum(np.floor(t, out=t), n - 1, out=t).astype(np.int64)
            counts += np.bincount(idx.ravel(), minlength=n)
            del t, idx  # else they are still held while the next block's are made
    total = counts.sum()
    if total <= 0:
        raise ValueError("cannot normalize an empty histogram")
    return counts / total


def _masses(p, q, require_normalized):
    """Both histograms' bin masses, which must cover the same bins."""
    a, b = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if require_normalized and (abs(a.sum() - 1.0) > 1e-6 or abs(b.sum() - 1.0) > 1e-6):
        raise ValueError("histogram vector does not sum to 1")
    if a.shape != b.shape:
        raise ValueError(f"histograms have {a.size} vs {b.size} bins")
    return a, b


def pearson(hs, ht) -> float:
    """Pearson correlation over matching bins (population covariance)."""
    a, b = _masses(hs, ht, require_normalized=False)
    da = a - a.mean()
    db = b - b.mean()
    sa = math.sqrt(float(da @ da))
    sb = math.sqrt(float(db @ db))
    if sa == 0.0 or sb == 0.0:
        raise DegenerateHistogramError("constant histogram has zero standard deviation")
    return float(np.clip(float(da @ db) / (sa * sb), -1.0, 1.0))


def _smoothed(p, q):
    """Both normalized histograms with every bin lifted off zero, renormalized."""
    ps, qs = (m + _KL_SMOOTHING for m in _masses(p, q, require_normalized=True))
    return ps / ps.sum(), qs / qs.sum()


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence with zero bins smoothed away; asymmetric."""
    ps, qs = _smoothed(p, q)
    return max(float(np.sum(ps * np.log(ps / qs))), 0.0)


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence, bounded by ln 2; symmetric."""
    ps, qs = _smoothed(p, q)
    m = 0.5 * (ps + qs)
    js = 0.5 * float(np.sum(ps * np.log(ps / m))) + 0.5 * float(np.sum(qs * np.log(qs / m)))
    return min(max(js, 0.0), math.log(2.0))


def hist_intersection(p, q) -> float:
    """Shared mass between two normalized histograms, in [0, 1]; symmetric."""
    ps, qs = _masses(p, q, require_normalized=True)
    return float(np.minimum(ps, qs).sum())


def gate_decision(rho, rho_th) -> str:
    """Adaptation is warranted exactly when correlation <= threshold (inclusive)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation {rho} outside [-1, 1]")
    return USE_DA if rho <= rho_th else USE_SAE


@dataclass
class SimilarityReport:
    rho: float
    kl_st: float
    kl_ts: float
    js: float
    hist_intersection: float
    rho_th: float
    decision: str
    degenerate_flag: bool = False


def compare_histograms(hs, ht, rho_th) -> SimilarityReport:
    """Full metric suite plus the gate decision.

    A degenerate (constant) histogram pair cannot be correlated; the report
    is then flagged and conservatively pinned to rho = 1.0 so the gate keeps
    the plain source-trained model.
    """
    degenerate = False
    try:
        rho = pearson(hs, ht)
    except DegenerateHistogramError:
        rho = 1.0
        degenerate = True
    return SimilarityReport(
        rho=rho,
        kl_st=kl_divergence(hs, ht),
        kl_ts=kl_divergence(ht, hs),
        js=js_divergence(hs, ht),
        hist_intersection=hist_intersection(hs, ht),
        rho_th=rho_th,
        decision=gate_decision(rho, rho_th),
        degenerate_flag=degenerate,
    )


@dataclass
class AutoRunResult:
    """What the gate, and the gated driver after it, produced."""

    report: SimilarityReport
    sae: TrainedBinarizer
    da: TrainedBinarizer | None
    masks: dict
    hist_source: np.ndarray
    hist_target: np.ndarray

    @property
    def used(self) -> TrainedBinarizer:
        return self.da if self.da is not None else self.sae


def gate(sae: TrainedBinarizer, source: Dataset, target: Dataset,
         cfg: ExperimentConfig) -> AutoRunResult:
    """Gate a trained binarizer on histogram correlation; ``da`` stays ``None``.

    The source histogram pools the binarizer's maps of the source validation
    pages, predicted one at a time. The target histogram pools every target
    page, whose masks at ``th_s`` are taken in the same pass. Target ground
    truth is never touched. A domain with no page to pool is a ``DataError``.
    """
    if not source.validation():
        raise DataError("source has no validation page to pool into its histogram")
    if not target.records:
        raise DataError("target dataset is empty")
    hist_source = domain_histogram((predict_prob_map(sae.model, rec.page)
                                    for rec in source.validation()), cfg.h_prec)
    masks = {}

    def target_maps():
        for rec in target.records:
            prob = predict_prob_map(sae.model, rec.page)
            masks[rec.stem] = binarize(prob, sae.th_s)
            yield prob

    hist_target = domain_histogram(target_maps(), cfg.h_prec)
    report = compare_histograms(hist_source, hist_target, cfg.rho_th)
    return AutoRunResult(report, sae, None, masks, hist_source, hist_target)


def autobindann(source: Dataset, target: Dataset, cfg: ExperimentConfig) -> AutoRunResult:
    """Train on source, ``gate``, and when the gate fires train the adversarial
    model, whose own swept threshold then binarizes the target."""
    result = gate(train_sae(source, cfg), source, target, cfg)
    if result.report.decision == USE_DA:
        result.da = train_bindann(source, target, cfg)
        result.masks = {
            rec.stem: binarize(predict_prob_map(result.da.model, rec.page), result.da.th_s)
            for rec in target.records
        }
    return result
