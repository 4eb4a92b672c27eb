"""Pixel-level evaluation with foreground as the positive class."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Confusion", "confusion", "precision", "recall", "f1"]


@dataclass
class Confusion:
    """Pixel counts; merging across patches or pages is plain addition."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other):
        return Confusion(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


def confusion(pred, gt) -> Confusion:
    p = np.asarray(pred).astype(bool)
    g = np.asarray(gt).astype(bool)
    if p.shape != g.shape:
        raise ValueError(f"prediction shape {p.shape} != ground truth shape {g.shape}")
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    return Confusion(tp, fp, fn, p.size - tp - fp - fn)


# Degenerate denominators resolve to 1.0 when the matching error count is also
# zero (nothing predicted and nothing to find), otherwise 0.0; this keeps the
# metrics total so threshold sweeps work on empty pages.

def precision(c: Confusion) -> float:
    if c.tp + c.fp == 0:
        return 1.0 if c.fn == 0 else 0.0
    return c.tp / (c.tp + c.fp)


def recall(c: Confusion) -> float:
    if c.tp + c.fn == 0:
        return 1.0 if c.fp == 0 else 0.0
    return c.tp / (c.tp + c.fn)


def f1(c: Confusion) -> float:
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0
    return 2 * c.tp / denom
