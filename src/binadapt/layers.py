"""Layer vocabulary: strided conv, transposed conv, ReLU, sigmoid, dropout,
gradient reversal, and binary cross-entropy.

Each op is a registered graph op kind (``conv2d``, ``tconv2d``, ``relu``,
``sigmoid``, ``dropout``, ``grl``, ``bce``) added to a graph by its node
builder (``conv_node``, ...) and evaluated by its registered forward and
backward functions on plain float64 arrays.
Convolution follows cross-correlation semantics (no kernel flip); the
transposed convolution is implemented as the exact adjoint of the convolution
with the same spec, so <conv(x), y> == <x, tconv(y)> holds for shared weights
and zero bias. Every convolution product runs on one zero-padded copy of its
input split into stride phases, on which each kernel tap's operand is a
contiguous window that BLAS reads in place: one matrix product per tap, or one
over all taps when the input has a single channel. The input gradient, and
with it the transposed convolution, runs as stride-1 convolutions of the
output gradient, one per stride phase of the input, all on one such copy. The
layout of each copy is planned once per shape. Each op's forward returns,
beside its value, all that its backward reads: a convolution its copy of its
input, the input's size and its weights, a relu the boolean sign of its
input, a dropout its boolean keep-mask. So the record keeps no value that
only convolutions consume, nor a relu's input or output, nor a dropout's
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def grl_lambda_at(epoch, start, increment):
    """Reversal coefficient at a given epoch: start + increment * epoch."""
    if epoch < 0:
        raise GraphError("epoch must be non-negative")
    return start + increment * epoch


# ---------------------------------------------------------------------------
# array kernels (batched [n, c, h, w])
#
# Every product runs in _correlate on the grid _grid builds: the zero-padded
# input, split into its stride phases and laid out channel-major as one flat
# row per phase and channel, with each sample's rows of a phase back to back.
# On that grid a kernel tap moves every output position by the same number of
# columns, so the operand of tap (ki, kj) is a contiguous window of one phase
# and BLAS reads it in place: one [o, c] @ [c, n*Hq*Wq] product per tap,
# accumulated through one scratch into a contiguous output (Anderson et al.
# 2017; Vasudevan et al. 2017). Outputs are computed on the whole grid and the
# valid ones are its top-left corner; slack columns past the last sample keep
# every window inside the buffer. When c == 1 those products would be one
# deep, which BLAS runs slowly, so the windows are stacked into one
# [o, kh*kw] @ [kh*kw, N] product.
# The input gradient, and with it the transposed convolution, is a gather: one
# stride-1 correlation of the output gradient per stride phase of the input,
# with the phase's flipped sub-kernel (Shi et al. 2016; Dumoulin & Visin 2016).
#
# Plans. All of this geometry depends on shapes alone: a grid's buffer shape
# and the phase copies that fill it, each tap's phase and column offset, and
# the input gradient's phases with their pads, origins and crops. Each plan is
# computed once per distinct shape and memoized, bounded, since a new batch
# size (a page's ragged last batch) adds entries (cf. Chetlur et al. 2014).
# Grid lifetime. A convolution's weight gradient reads the same grid of its
# input as its forward product, so the forward saves that grid, with the
# input's spatial size, for its backward instead of the input itself. The
# transposed convolution's backward grids its output gradient once for both
# of its products.

_PLANS = 512  # entries per plan memo: a few per conv node and batch size


def _split(size, before, after, s):
    """Yield, for each stride phase of an axis of `size` samples padded by
    `before` and `after` (a negative pad crops), (phase, destination slice in
    the phase's samples, source slice of the axis) where the phase holds input."""
    lo, hi = max(before, 0), size + before - max(-after, 0)
    for a in range(s):
        i0, i1 = -(-(lo - a) // s), -(-(hi - a) // s)
        if i1 > i0:
            yield a, slice(i0, i1), slice(a + i0 * s - before, hi - before, s)


@lru_cache(maxsize=_PLANS)
def _grid_plan(shape, padding, stride, kernel):
    """Layout of the grid of an input of `shape` [n, c, h, w]: the buffer
    shape, (Hq, Wq), and (phase, rows, cols, source rows, source cols) for each
    phase that holds input."""
    n, c, h, w = shape
    pt, pb, pl, pr = padding
    (sh, sw), (kh, kw) = stride, kernel
    hq, wq = -(-(h + pt + pb) // sh), -(-(w + pl + pr) // sw)
    slack = (kh - 1) // sh * wq + (kw - 1) // sw
    copies = tuple((a * sw + b, rows, cols, src_rows, src_cols)
                   for a, rows, src_rows in _split(h, pt, pb, sh)
                   for b, cols, src_cols in _split(w, pl, pr, sw))
    return (sh * sw, c, n * hq * wq + slack), (hq, wq), copies


def _grid(x, padding, stride, kernel):
    """Padded, phase-split, channel-major grid of x [n, c, h, w]: (buf, n, Hq,
    Wq), buf an array [sh*sw, c, n*Hq*Wq + slack] and (Hq, Wq) the padded size
    over the stride, rounded up. Padded row a + sh*i, column b + sw*j of sample
    m sits in phase a*sw + b at column (m*Hq + i)*Wq + j; slack is the largest
    tap offset."""
    n, c = x.shape[:2]
    shape, (hq, wq), copies = _grid_plan(x.shape, padding, stride, kernel)
    buf = np.zeros(shape)
    phases = buf[:, :, : n * hq * wq].reshape(shape[0], c, n, hq, wq)
    xc = x.transpose(1, 0, 2, 3)
    for p, rows, cols, src_rows, src_cols in copies:
        phases[p, :, :, rows, cols] = xc[:, :, src_rows, src_cols]
    return buf, n, hq, wq


@lru_cache(maxsize=_PLANS)
def _tap_plan(kernel, stride, wq, origin):
    """(ki, kj, phase, offset) per tap: tap (ki, kj), shifted by origin whole
    grid cells, meets the window buf[phase, :, offset : offset + n*Hq*Wq] of a
    grid Wq columns wide."""
    (kh, kw), (sh, sw), (r0, c0) = kernel, stride, origin
    return tuple((ki, kj, ki % sh * sw + kj % sw, (r0 + ki // sh) * wq + c0 + kj // sw)
                 for ki in range(kh) for kj in range(kw))


def _correlate(grid, w, stride, origin=(0, 0)):
    """Channel-major [o, n, Hq, Wq] cross-correlation of w [o, c, kh, kw] over
    grid; output (i, j) of each sample is valid where its windows stay inside
    that sample's grid."""
    buf, n, hq, wq = grid
    o, c, kh, kw = w.shape
    size = n * hq * wq
    taps = _tap_plan((kh, kw), stride, wq, origin)
    if c == 1:
        stack = np.stack([buf[p, 0, off : off + size] for _, _, p, off in taps])
        y = w.reshape(o, kh * kw) @ stack
    else:
        (ki, kj, p, off), *rest = taps
        y = w[:, :, ki, kj] @ buf[p, :, off : off + size]
        tmp = np.empty_like(y)
        for ki, kj, p, off in rest:
            y += np.matmul(w[:, :, ki, kj], buf[p, :, off : off + size], out=tmp)
    return y.reshape(o, n, hq, wq)


def _conv_out(grid, w, stride, out_hw):
    """Convolution [n, o, oh, ow] with w [o, c, kh, kw] of the input gridded
    with its padding, stride and kernel."""
    return _correlate(grid, w, stride)[:, :, : out_hw[0], : out_hw[1]].transpose(1, 0, 2, 3)


def _conv_grad_weight(grid, g, stride, kernel):
    """Gradient [o, c, kh, kw] of a convolution's weight from the grid of its
    input and its output gradient g [n, o, oh, ow]."""
    buf, n, hq, wq = grid
    o, oh, ow = g.shape[1:]
    size = n * hq * wq
    gz = np.zeros((o, size))  # g on the grid; zeros drop the invalid positions
    gz.reshape(o, n, hq, wq)[:, :, :oh, :ow] = g.transpose(1, 0, 2, 3)
    gw = np.empty((o, buf.shape[1], *kernel))
    for ki, kj, p, off in _tap_plan(kernel, stride, wq, (0, 0)):
        gw[:, :, ki, kj] = gz @ buf[p, :, off : off + size].T
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


@lru_cache(maxsize=_PLANS)
def _gather_plan(kernel, stride, padding, in_hw, g_hw):
    """Geometry of _conv_grad_input: the pads and reach of the output
    gradient's stride-1 grid, and per input phase some tap reaches (first row,
    first column, row and column kernel offsets, origin on the grid, size)."""
    (kh, kw), (sh, sw) = kernel, stride
    rows = _phases(kh, sh, padding[0], in_hw[0], g_hw[0])
    cols = _phases(kw, sw, padding[2], in_hw[1], g_hw[1])
    top, bottom = (max((p[i] for p in rows), default=0) for i in (2, 3))
    left, right = (max((p[i] for p in cols), default=0) for i in (2, 3))
    # a phase padded by lo before g starts top - lo rows into the grid, so its
    # last tap meets row top - lo + taps - 1: the grid's largest tap offset
    reach = (max((top - lo + len(range(a, kh, sh)) for _, a, lo, _ in rows), default=1),
             max((left - lo + len(range(b, kw, sw)) for _, b, lo, _ in cols), default=1))
    phases = tuple((r0, c0, a, b, (top - r_lo, left - c_lo),
                    (len(range(r0, in_hw[0], sh)), len(range(c0, in_hw[1], sw))))
                   for r0, a, r_lo, _ in rows for c0, b, c_lo, _ in cols)
    return (top, bottom, left, right), reach, phases


def _conv_grad_input(g, w, stride, padding, in_hw):
    """Gradient [n, c, h, w] of a convolution's input from its output gradient
    g [n, o, oh, ow], i.e. the transposed convolution of g with w [o, c, kh, kw]."""
    sh, sw = stride
    pads, reach, phases = _gather_plan(w.shape[2:], stride, padding, in_hw, g.shape[2:])
    grid = _grid(g, pads, (1, 1), reach)

    def phase(a, b, origin, crop):
        """Channel-major gradient of one input phase."""
        sub = w[:, :, a::sh, b::sw][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _correlate(grid, sub, (1, 1), origin)[:, :, : crop[0], : crop[1]]

    if sh == sw == 1:  # one phase, already in place: no interleaving copy
        return phase(*phases[0][2:]).transpose(1, 0, 2, 3)
    gx = np.zeros((w.shape[1], g.shape[0], *in_hw))  # phases no tap reaches stay zero
    for r0, c0, *rest in phases:
        gx[:, :, r0::sh, c0::sw] = phase(*rest)
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
    out_hw = spec.out_hw(*x.shape[2:])
    grid = _grid(x, spec.padding, spec.stride, spec.kernel)
    y = _conv_out(grid, w, spec.stride, out_hw) + b[None, :, None, None]
    return y, (grid, x.shape[2:], w)


def _bwd_conv(node, g, saved, needs):
    grid, in_hw, w = saved
    spec = node.attrs["spec"]
    gx = _conv_grad_input(g, w, spec.stride, spec.padding, in_hw) if needs[0] else None
    gw = _conv_grad_weight(grid, g, spec.stride, spec.kernel)
    return [gx, gw, g.sum(axis=(0, 2, 3))]


def _fwd_tconv(node, xs, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    _check_conv_args(x, w, b, spec, transposed=True)
    out_hw = spec.transpose_out_hw(*x.shape[2:])
    y = _conv_grad_input(x, w, spec.stride, spec.padding, out_hw) + b[None, :, None, None]
    return y, (x, w)


def _bwd_tconv(node, g, saved, needs):
    x, w = saved
    spec = node.attrs["spec"]
    grid = _grid(g, spec.padding, spec.stride, spec.kernel)  # serves both products
    gx = _conv_out(grid, w, spec.stride, x.shape[2:]) if needs[0] else None
    gw = _conv_grad_weight(grid, x, spec.stride, spec.kernel)
    return [gx, gw, g.sum(axis=(0, 2, 3))]


def _fwd_relu(node, xs, run):
    return np.maximum(xs[0], 0.0), xs[0] > 0  # backward reads the sign: a byte per value, not 8


def _bwd_relu(node, g, pos, needs):
    # pos has x's layout, so g * pos is laid out as g * (x > 0). That matters:
    # the conv below sums its bias gradient g.sum(axis=(0, 2, 3)) in memory
    # order, and a product in another layout (pos.astype(float) multiplied
    # into in place) adds the same values in another order and rounds otherwise
    return [g * pos]


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def _fwd_sigmoid(node, xs, run):
    x = xs[0]
    # exp of -|x| never overflows; 1/(1+e) for x >= 0 and e/(1+e) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    # saturated float64 would round to exactly 0/1; keep the open interval
    y = np.clip(out, _SIGMOID_LO, _SIGMOID_HI)
    return y, y


def _bwd_sigmoid(node, g, y, needs):
    return [g * y * (1.0 - y)]


def _fwd_dropout(node, xs, run):
    x = xs[0]
    rate = node.attrs["rate"]
    if not run.training or rate == 0.0:
        return x, None
    if run.rng is None:
        raise GraphError(f"dropout node ({node.name}) needs an rng in training mode")
    keep = run.rng.random(x.shape) >= rate
    return _inverted_dropout(x, keep, rate), keep


def _bwd_dropout(node, g, keep, needs):
    if keep is None:  # no mask drawn: the forward passed its input through
        return [g]
    return [_inverted_dropout(g, keep, node.attrs["rate"])]


def _inverted_dropout(a, keep, rate):
    """``a`` times the multiplier of the boolean keep-mask: 0 where dropped,
    else 1/(1-rate), computed into the multiplier (the product ``a * m``)."""
    m = keep / (1.0 - rate)
    return np.multiply(a, m, out=m)


def _fwd_grl(node, xs, run):
    return xs[0], None


def _bwd_grl(node, g, saved, needs):
    return [(-node.attrs["lam"]) * g]


def _fwd_bce(node, xs, run):
    p, t = xs
    if p.shape != t.shape:
        raise GraphError(f"prediction shape {p.shape} != target shape {t.shape}")
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return np.array([-np.mean(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))]), (p, t)


def _bwd_bce(node, g, saved, needs):
    p, t = saved
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


def reversal_coefficient(lam):
    """``lam`` as a float, which must be finite and non-negative."""
    if not 0.0 <= lam < np.inf:
        raise GraphError(f"gradient-reversal coefficient {lam} must be finite and non-negative")
    return float(lam)


def grl_node(g: Graph, x, lam, name=None):
    return g.add_node("grl", (x,), name=name, lam=reversal_coefficient(lam))


def bce_node(g: Graph, pred, target, name=None):
    return g.add_node("bce", (pred, target), name=name)
