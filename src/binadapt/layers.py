"""Layer vocabulary: strided conv, transposed conv, ReLU, sigmoid, dropout,
gradient reversal, and binary cross-entropy.

Each op is a registered graph op kind (``conv2d``, ``tconv2d``, ``relu``,
``sigmoid``, ``dropout``, ``grl``, ``bce``) added to a graph by its node
builder (``conv_node``, ...) and evaluated by its registered forward and
backward functions on plain float64 arrays.
Convolution follows cross-correlation semantics (no kernel flip); the
transposed convolution is implemented as the exact adjoint of the convolution
with the same spec, so <conv(x), y> == <x, tconv(y)> holds for shared weights
and zero bias. The convolution, its weight gradient and its input gradient
(hence the transposed convolution too) run as one BLAS matrix product per
kernel tap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, GraphError, register_op

__all__ = [
    "ConvSpec",
    "grl_lambda_at",
    "BCE_CLAMP",
    "conv_node",
    "tconv_node",
    "relu_node",
    "sigmoid_node",
    "dropout_node",
    "grl_node",
    "bce_node",
]

BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract of a (transposed) convolution.

    padding is per-side: (top, bottom, left, right). For a convolution the
    output spatial size is floor((in + pad_total - k) / s) + 1; for a
    transposed convolution it is (in - 1) * s + k - pad_total.
    """

    in_channels: int
    out_channels: int
    kernel: tuple = (3, 3)
    stride: tuple = (1, 1)
    padding: tuple = (0, 0, 0, 0)

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise GraphError("channel counts must be positive")
        if min(self.kernel) < 1 or min(self.stride) < 1:
            raise GraphError("kernel and stride must be positive")
        if len(self.padding) != 4 or min(self.padding) < 0:
            raise GraphError("padding must be four non-negative ints")

    def out_hw(self, h, w):
        pt, pb, pl, pr = self.padding
        kh, kw = self.kernel
        sh, sw = self.stride
        oh = (h + pt + pb - kh) // sh + 1
        ow = (w + pl + pr - kw) // sw + 1
        if oh < 1 or ow < 1:
            raise GraphError(f"conv input {h}x{w} admits no output position")
        return oh, ow

    def transpose_out_hw(self, h, w):
        pt, pb, pl, pr = self.padding
        kh, kw = self.kernel
        sh, sw = self.stride
        oh = (h - 1) * sh + kh - (pt + pb)
        ow = (w - 1) * sw + kw - (pl + pr)
        if oh < 1 or ow < 1:
            raise GraphError(f"transposed conv input {h}x{w} admits no output position")
        return oh, ow


def grl_lambda_at(epoch, start=0.1, increment=0.01):
    """Reversal coefficient at a given epoch: start + increment * epoch."""
    if epoch < 0:
        raise GraphError("epoch must be non-negative")
    return start + increment * epoch


# ---------------------------------------------------------------------------
# array kernels (batched [n, c, h, w])
#
# Each kernel tap is one small GEMM (Chellapilla, Puri & Simard 2006) on the
# channel-major [c, n*oh*ow] copy of the strided slice the tap meets; only one
# tap's slice exists at a time, never the whole window matrix.

def _pad(x, padding):
    """Zero-padded channel-major copy [c, n, h + pt + pb, w + pl + pr] of x."""
    pt, pb, pl, pr = padding
    n, c, h, w = x.shape
    xp = np.zeros((c, n, h + pt + pb, w + pl + pr))
    xp[:, :, pt : pt + h, pl : pl + w] = x.transpose(1, 0, 2, 3)
    return xp


def _taps(xp, kernel, stride, out_hw):
    """Yield (ki, kj, the [c, n, oh, ow] slice of padded xp that tap (ki, kj) meets)."""
    (kh, kw), (sh, sw), (oh, ow) = kernel, stride, out_hw
    for ki in range(kh):
        for kj in range(kw):
            yield ki, kj, xp[:, :, ki : ki + sh * oh : sh, kj : kj + sw * ow : sw]


def _conv_fwd(x, w, stride, padding):
    xp = _pad(x, padding)
    o, c, kh, kw = w.shape
    out_hw = ((xp.shape[2] - kh) // stride[0] + 1, (xp.shape[3] - kw) // stride[1] + 1)
    y = np.zeros((o, x.shape[0] * out_hw[0] * out_hw[1]))
    for ki, kj, tap in _taps(xp, (kh, kw), stride, out_hw):
        y += w[:, :, ki, kj] @ tap.reshape(c, -1)
    return y.reshape(o, x.shape[0], *out_hw).transpose(1, 0, 2, 3)


def _conv_grad_weight(x, g, stride, padding, kernel):
    gm = g.transpose(1, 0, 2, 3).reshape(g.shape[1], -1)
    gw = np.empty((g.shape[1], x.shape[1], *kernel))
    for ki, kj, tap in _taps(_pad(x, padding), kernel, stride, g.shape[2:]):
        gw[:, :, ki, kj] = gm @ tap.reshape(x.shape[1], -1).T
    return gw


def _conv_grad_input(g, w, stride, padding, in_hw):
    n, o, oh, ow = g.shape
    c = w.shape[1]
    pt, pb, pl, pr = padding
    h, w_in = in_hw
    gm = g.transpose(1, 0, 2, 3).reshape(o, -1)
    gx = np.zeros((c, n, h + pt + pb, w_in + pl + pr))
    for ki, kj, tap in _taps(gx, w.shape[2:], stride, (oh, ow)):
        tap += (w[:, :, ki, kj].T @ gm).reshape(c, n, oh, ow)
    return gx[:, :, pt : pt + h, pl : pl + w_in].transpose(1, 0, 2, 3)


def _check_conv_args(x, w, b, spec, transposed):
    if x.ndim != 4:
        raise GraphError(f"expected [n,c,h,w] input, got shape {x.shape}")
    kh, kw = spec.kernel
    wshape = (
        (spec.in_channels, spec.out_channels, kh, kw)
        if transposed
        else (spec.out_channels, spec.in_channels, kh, kw)
    )
    if w.shape != wshape:
        raise GraphError(f"weight shape {w.shape} != expected {wshape}")
    if b.shape != (spec.out_channels,):
        raise GraphError(f"bias shape {b.shape} != ({spec.out_channels},)")
    if x.shape[1] != spec.in_channels:
        raise GraphError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")


# ---------------------------------------------------------------------------
# graph op registration

def _fwd_conv(node, xs, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    _check_conv_args(x, w, b, spec, transposed=False)
    spec.out_hw(*x.shape[2:])
    return _conv_fwd(x, w, spec.stride, spec.padding) + b[None, :, None, None]


def _bwd_conv(node, g, xs, y, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    gx = _conv_grad_input(g, w, spec.stride, spec.padding, x.shape[2:])
    gw = _conv_grad_weight(x, g, spec.stride, spec.padding, spec.kernel)
    return [gx, gw, g.sum(axis=(0, 2, 3))]


def _fwd_tconv(node, xs, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    _check_conv_args(x, w, b, spec, transposed=True)
    out_hw = spec.transpose_out_hw(*x.shape[2:])
    return _conv_grad_input(x, w, spec.stride, spec.padding, out_hw) + b[None, :, None, None]


def _bwd_tconv(node, g, xs, y, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    gx = _conv_fwd(g, w, spec.stride, spec.padding)
    gw = _conv_grad_weight(g, x, spec.stride, spec.padding, spec.kernel)
    return [gx, gw, g.sum(axis=(0, 2, 3))]


def _fwd_relu(node, xs, run):
    return np.maximum(xs[0], 0.0)


def _bwd_relu(node, g, xs, y, run):
    return [g * (xs[0] > 0)]


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def _fwd_sigmoid(node, xs, run):
    x = xs[0]
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    # saturated float64 would round to exactly 0/1; keep the open interval
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI)


def _bwd_sigmoid(node, g, xs, y, run):
    return [g * y * (1.0 - y)]


def _fwd_dropout(node, xs, run):
    x = xs[0]
    rate = node.attrs["rate"]
    if not run.training or rate == 0.0:
        return x
    mask = run.masks.get(run.nid)
    if mask is None:
        if run.rng is None:
            raise GraphError(f"dropout node ({node.name}) needs an rng in training mode")
        # inverted dropout: 0 with probability ``rate``, else 1/(1-rate)
        mask = (run.rng.random(x.shape) >= rate) / (1.0 - rate)
        run.masks[run.nid] = mask
    elif mask.shape != x.shape:
        raise GraphError(f"frozen dropout mask shape {mask.shape} != input {x.shape}")
    return x * mask


def _bwd_dropout(node, g, xs, y, run):
    mask = run.masks.get(run.nid)
    if mask is None or not run.training or node.attrs["rate"] == 0.0:
        return [g]
    return [g * mask]


def _fwd_grl(node, xs, run):
    return xs[0]


def _bwd_grl(node, g, xs, y, run):
    return [(-node.attrs["lam"]) * g]


def _fwd_bce(node, xs, run):
    p, t = xs
    if p.shape != t.shape:
        raise GraphError(f"prediction shape {p.shape} != target shape {t.shape}")
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return np.array([-np.mean(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))])


def _bwd_bce(node, g, xs, y, run):
    p, t = xs
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    in_range = (p >= BCE_CLAMP) & (p <= 1.0 - BCE_CLAMP)
    gp = g[0] / p.size * (pc - t) / (pc * (1.0 - pc)) * in_range
    return [gp, None]  # targets are constants


register_op("conv2d", _fwd_conv, _bwd_conv)
register_op("tconv2d", _fwd_tconv, _bwd_tconv)
register_op("relu", _fwd_relu, _bwd_relu)
register_op("sigmoid", _fwd_sigmoid, _bwd_sigmoid)
register_op("dropout", _fwd_dropout, _bwd_dropout)
register_op("grl", _fwd_grl, _bwd_grl)
register_op("bce", _fwd_bce, _bwd_bce)


# node builders

def conv_node(g: Graph, x, w, b, spec, name=None):
    return g.add_node("conv2d", (x, w, b), name=name, spec=spec)


def tconv_node(g: Graph, x, w, b, spec, name=None):
    return g.add_node("tconv2d", (x, w, b), name=name, spec=spec)


def relu_node(g: Graph, x, name=None):
    return g.add_node("relu", (x,), name=name)


def sigmoid_node(g: Graph, x, name=None):
    return g.add_node("sigmoid", (x,), name=name)


def dropout_node(g: Graph, x, rate, name=None):
    if not 0.0 <= rate < 1.0:
        raise GraphError(f"dropout rate {rate} outside [0, 1)")
    return g.add_node("dropout", (x,), name=name, rate=rate)


def grl_node(g: Graph, x, lam, name=None):
    if lam < 0:
        raise GraphError("gradient-reversal coefficient must be non-negative")
    return g.add_node("grl", (x,), name=name, lam=lam)


def bce_node(g: Graph, pred, target, name=None):
    return g.add_node("bce", (pred, target), name=name)
