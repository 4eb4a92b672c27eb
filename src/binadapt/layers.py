"""Layer vocabulary: strided conv, transposed conv, ReLU, sigmoid, dropout,
gradient reversal, and binary cross-entropy.

Each op is a registered graph op kind (``conv2d``, ``tconv2d``, ``relu``,
``sigmoid``, ``dropout``, ``grl``, ``bce``) added to a graph by its node
builder (``conv_node``, ...) and evaluated by its registered forward and
backward functions on plain float64 arrays.
Convolution follows cross-correlation semantics (no kernel flip); the
transposed convolution is implemented as the exact adjoint of the convolution
with the same spec, so <conv(x), y> == <x, tconv(y)> holds for shared weights
and zero bias. The convolution and its weight gradient run as one BLAS
matrix product per kernel tap, or one product over all taps when the input has
a single channel. The input gradient, and with it the transposed convolution,
runs as stride-1 convolutions of the output gradient, one per stride phase.
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
# Every product runs in _correlate: one small GEMM per kernel tap (Chellapilla,
# Puri & Simard 2006) on the channel-major [c, n*oh*ow] copy of the strided
# slice the tap meets, so only one tap's slice exists at a time. When c == 1
# those GEMMs would be one deep, which BLAS runs slowly, so the taps are
# stacked into one [o, kh*kw] @ [kh*kw, n*oh*ow] product instead. The input
# gradient, and with it the transposed convolution, is a gather: one stride-1
# correlation of the output gradient per stride phase of the input, with the
# phase's flipped sub-kernel (Shi et al. 2016; Dumoulin & Visin 2016).

def _pad(x, padding):
    """Channel-major copy [c, n, h + pt + pb, w + pl + pr] of x, zero-padded
    on each side with a positive pad and cropped on each with a negative one."""
    pt, pb, pl, pr = padding
    n, c, h, w = x.shape
    xp = np.zeros((c, n, h + pt + pb, w + pl + pr))
    src = x.transpose(1, 0, 2, 3)[:, :, max(-pt, 0) : h - max(-pb, 0), max(-pl, 0) : w - max(-pr, 0)]
    xp[:, :, max(pt, 0) : xp.shape[2] - max(pb, 0), max(pl, 0) : xp.shape[3] - max(pr, 0)] = src
    return xp


def _taps(xp, kernel, stride, out_hw):
    """Yield (ki, kj, the [c, n, oh, ow] slice of padded xp that tap (ki, kj) meets)."""
    (kh, kw), (sh, sw), (oh, ow) = kernel, stride, out_hw
    for ki in range(kh):
        for kj in range(kw):
            yield ki, kj, xp[:, :, ki : ki + sh * oh : sh, kj : kj + sw * ow : sw]


def _correlate(xp, w, stride):
    """Channel-major [o, n, oh, ow] cross-correlation of padded xp [c, n, H, W]
    with w [o, c, kh, kw]."""
    o, c, kh, kw = w.shape
    n = xp.shape[1]
    out_hw = ((xp.shape[2] - kh) // stride[0] + 1, (xp.shape[3] - kw) // stride[1] + 1)
    taps = _taps(xp, (kh, kw), stride, out_hw)
    if c == 1:
        cols = np.empty((kh * kw, n, *out_hw))
        for ki, kj, tap in taps:
            cols[ki * kw + kj] = tap[0]
        y = w.reshape(o, kh * kw) @ cols.reshape(kh * kw, -1)
    else:
        y = np.zeros((o, n * out_hw[0] * out_hw[1]))
        for ki, kj, tap in taps:
            y += w[:, :, ki, kj] @ tap.reshape(c, -1)
    return y.reshape(o, n, *out_hw)


def _conv_fwd(x, w, stride, padding):
    return _correlate(_pad(x, padding), w, stride).transpose(1, 0, 2, 3)


def _conv_grad_weight(x, g, stride, padding, kernel):
    gm = g.transpose(1, 0, 2, 3).reshape(g.shape[1], -1)
    gw = np.empty((g.shape[1], x.shape[1], *kernel))
    for ki, kj, tap in _taps(_pad(x, padding), kernel, stride, g.shape[2:]):
        gw[:, :, ki, kj] = gm @ tap.reshape(x.shape[1], -1).T
    return gw


def _phases(k, s, pad, size, g_size):
    """Stride phases of one input axis: (first input index, kernel offset,
    pads before and after g) for each phase some kernel tap reaches.

    Input index first + s*m (m < count) meets kernel tap offset + s*t through
    output index m + d - t, where d = (first + pad - offset) // s. The phase
    is thus a stride-1 correlation, with its taps flipped, of g padded by
    taps - 1 - d before and count - g_size + d after; a negative pad crops g.
    """
    out = []
    for offset in range(s):
        taps = len(range(offset, k, s))
        first = (offset - pad) % s
        count = len(range(first, size, s))
        if taps and count:
            d = (first + pad - offset) // s
            out.append((first, offset, taps - 1 - d, count - g_size + d))
    return out


def _conv_grad_input(g, w, stride, padding, in_hw):
    """Gradient [n, c, h, w] of a convolution's input from its output gradient
    g [n, o, oh, ow], i.e. the transposed convolution of g with w [o, c, kh, kw]."""
    n, o, oh, ow = g.shape
    sh, sw = stride
    rows = _phases(w.shape[2], sh, padding[0], in_hw[0], oh)
    cols = _phases(w.shape[3], sw, padding[2], in_hw[1], ow)
    top, bottom = (max((p[i] for p in rows), default=0) for i in (2, 3))
    left, right = (max((p[i] for p in cols), default=0) for i in (2, 3))
    gp = _pad(g, (top, bottom, left, right))  # one padded copy serves every phase
    gx = np.zeros((w.shape[1], n, *in_hw))  # phases no tap reaches stay zero
    for r0, a, r_lo, r_hi in rows:
        for c0, b, c_lo, c_hi in cols:
            sub = w[:, :, a::sh, b::sw][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            view = gp[:, :, top - r_lo : top + oh + r_hi, left - c_lo : left + ow + c_hi]
            gx[:, :, r0::sh, c0::sw] = _correlate(view, sub, (1, 1))
    return gx.transpose(1, 0, 2, 3)


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
    gx = _conv_grad_input(g, w, spec.stride, spec.padding, x.shape[2:]) if run.needs[0] else None
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
    gx = _conv_fwd(g, w, spec.stride, spec.padding) if run.needs[0] else None
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
